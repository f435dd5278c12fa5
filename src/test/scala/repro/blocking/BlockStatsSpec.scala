package repro.blocking

import org.apache.spark.sql.functions._
import repro.{Fixtures, Oracle, SparkSpec}
import repro.er.{Datasets, ErSynth}

class BlockStatsSpec extends SparkSpec {
  import spark.implicits._

  private lazy val cc = Fixtures.ccCollection(spark)
  private lazy val dd = Fixtures.dirtyCollection(spark)

  test("clean-clean: zero-comparison blocks are dropped") {
    val bids = cc.blockStats.select("bid").collect().map(_.getString(0)).toSet
    assert(bids === Set("b1", "b2", "b3", "b4")) // b5 = {2 |} has no pairs
  }

  test("clean-clean: |b| and ||b|| per block") {
    val stats = cc.blockStats.collect()
      .map(r => r.getString(0) -> ((r.getLong(1), r.getDouble(2)))).toMap
    assert(stats("b1") === ((3L, 2.0)))
    assert(stats("b2") === ((3L, 2.0)))
    assert(stats("b3") === ((3L, 2.0)))
    assert(stats("b4") === ((2L, 1.0)))
  }

  test("clean-clean: global statistics") {
    assert(cc.nBlocks === 4)
    assert(cc.totComps === 7.0)
    assert(cc.sumBlockSizes === 11)
    assert(cc.nEntities === 5)
    assert(cc.cepK === 5)   // floor(11 / 2)
    assert(cc.cnpK === 2)   // max(1, floor(11 / 5))
  }

  test("clean-clean: eb is restricted to retained blocks") {
    assert(cc.eb.filter($"bid" === "b5").count() === 0)
    assert(cc.eb.count() === 11)
  }

  test("clean-clean: candidate pairs are the distinct cross-source co-occurrences") {
    val pairs = Fixtures.pairSet(BlockStats.candidatePairs(cc))
    assert(pairs === Set((0L, 10L), (0L, 11L), (1L, 10L), (1L, 11L), (2L, 11L)))
  }

  test("dirty: block stats use |b|(|b|-1)/2") {
    val stats = dd.blockStats.collect()
      .map(r => r.getString(0) -> ((r.getLong(1), r.getDouble(2)))).toMap
    assert(stats === Map("x" -> ((3L, 3.0)), "y" -> ((2L, 1.0)), "z" -> ((2L, 1.0))))
  }

  test("dirty: global statistics") {
    assert(dd.nBlocks === 3)
    assert(dd.totComps === 5.0)
    assert(dd.sumBlockSizes === 7)
    assert(dd.cepK === 3)
    assert(dd.cnpK === 1)
  }

  test("dirty: candidate pairs are ordered i < j and distinct") {
    val pairs = Fixtures.pairSet(BlockStats.candidatePairs(dd))
    assert(pairs === Set((0L, 1L), (0L, 2L), (1L, 2L), (2L, 3L)))
  }

  test("cnpK is never below 1") {
    val tiny = BlockStats.fromAssignments(
      Seq((0L, 1, "b"), (10L, 2, "b")).toDF("eid", "src", "bid"),
      dirty = false, n1 = 100, n2 = 100)
    assert(tiny.cnpK === 1)
  }

  test("cnpK of a collection without entities fails with a message") {
    val empty = cc.copy(n1 = 0, n2 = 0)
    val e = intercept[IllegalArgumentException](empty.cnpK)
    assert(e.getMessage.contains("|E1| + |E2| = 0"))
  }

  test("build() composes purging and filtering on a real dataset") {
    val ds = ErSynth.cleanClean(spark, Datasets.unitCc)
    val bc = BlockStats.build(ds)
    assert(bc.nBlocks > 0)
    assert(bc.totComps > 0)
    // No retained block may exceed half the profiles.
    val maxSize = bc.blockStats.agg(max("bSize")).collect()(0).getLong(0)
    assert(maxSize <= ds.nEntities / 2)
  }

  test("candidate pairs match DuckDB on generated data (clean-clean)") {
    val ds = ErSynth.cleanClean(spark, Datasets.unitCc)
    val bc = BlockStats.build(ds)
    Oracle.assertEquivalent(
      BlockStats.candidatePairs(bc),
      """SELECT DISTINCT CAST(a.eid AS BIGINT) AS i, CAST(b.eid AS BIGINT) AS j
        |FROM eb a JOIN eb b ON a.bid = b.bid
        |WHERE CAST(a.src AS INT) = 1 AND CAST(b.src AS INT) = 2
        |""".stripMargin,
      "eb" -> bc.eb)
  }

  test("candidate pairs match DuckDB on generated data (dirty)") {
    val ds = ErSynth.dirty(spark, Datasets.unitDirty)
    val bc = BlockStats.build(ds)
    Oracle.assertEquivalent(
      BlockStats.candidatePairs(bc),
      """SELECT DISTINCT CAST(a.eid AS BIGINT) AS i, CAST(b.eid AS BIGINT) AS j
        |FROM eb a JOIN eb b ON a.bid = b.bid
        |WHERE CAST(a.eid AS BIGINT) < CAST(b.eid AS BIGINT)
        |""".stripMargin,
      "eb" -> bc.eb)
  }

  test("block stats match DuckDB on generated data") {
    val ds = ErSynth.cleanClean(spark, Datasets.unitCc.copy(seed = 77))
    val bc = BlockStats.build(ds)
    Oracle.assertEquivalent(
      bc.blockStats.select($"bid", $"bSize".cast("long").as("bsize"),
        $"bComps".as("bcomps")),
      """SELECT bid, COUNT(*) AS bsize,
        |       CAST(SUM(CASE WHEN CAST(src AS INT)=1 THEN 1 ELSE 0 END) *
        |            SUM(CASE WHEN CAST(src AS INT)=2 THEN 1 ELSE 0 END) AS DOUBLE) AS bcomps
        |FROM eb GROUP BY bid
        |HAVING bcomps > 0
        |""".stripMargin,
      "eb" -> bc.eb)
  }
}
