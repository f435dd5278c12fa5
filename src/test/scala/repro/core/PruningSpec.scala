package repro.core

import org.apache.spark.sql.functions._
import repro.{Fixtures, Oracle, SparkSpec}

/** Pins every pruning algorithm to hand-worked expectations over the
  * [[Fixtures.scoredPairs]] table:
  *
  *   (1,101,.90) (1,102,.60) (1,103,.55) (2,101,.70) (2,102,.70)
  *   (3,103,.45 invalid) (4,104,.50)
  *
  * Valid pairs: 6. Global mean = (.90+.60+.55+.70+.70+.50)/6 = 0.658333.
  * Entity averages: 1→.68333, 2→.70, 3(101)→.80, 102→.65, 103→.55, 4/104→.50.
  * Entity maxima:   1→.90, 2→.70, 101→.90, 102→.70, 103→.55, 4/104→.50.
  */
class PruningSpec extends SparkSpec {

  private lazy val scored = Fixtures.scoredPairs(spark)
  private def run(df: org.apache.spark.sql.DataFrame) = Fixtures.pairSet(df)

  test("validity gate: pairs below 0.5 never survive any algorithm") {
    for (algo <- Pruning.weightBased ++ Pruning.cardinalityBased) {
      val out = run(Pruning.byName(algo, scored, cepK = 100, cnpK = 10))
      assert(!out.contains((3L, 103L)), s"$algo retained an invalid pair")
    }
  }

  test("BCl keeps exactly the valid pairs, including prob == 0.5") {
    assert(run(Pruning.bcl(scored)) === Set(
      (1L, 101L), (1L, 102L), (1L, 103L), (2L, 101L), (2L, 102L), (4L, 104L)))
  }

  test("WEP keeps pairs at or above the global valid mean") {
    // mean = 0.6583; keep .90, .70, .70
    assert(run(Pruning.wep(scored)) === Set((1L, 101L), (2L, 101L), (2L, 102L)))
  }

  test("WEP on an all-invalid table is empty") {
    import spark.implicits._
    val none = Seq(Fixtures.Scored(1, 2, 0.3)).toDF()
    assert(Pruning.wep(none).count() === 0)
  }

  test("WNP keeps pairs reaching either endpoint average") {
    // (1,101): .90 >= .68 keep; (1,102): .60 < .68 but < .65 too -> drop? .60 < .65 drop
    // (1,103): .55 < .68 but == avg(103)=.55 keep; (2,101): .70 >= .70 keep
    // (2,102): .70 >= .70 keep; (4,104): .50 >= .50 keep
    assert(run(Pruning.wnp(scored)) === Set(
      (1L, 101L), (1L, 103L), (2L, 101L), (2L, 102L), (4L, 104L)))
  }

  test("RWNP requires both endpoint averages") {
    // (1,101): .90 >= .68 and >= .80 keep; (1,103): .55 < .68 drop
    // (2,101): .70 >= .70 but < .80 drop; (2,102): .70>=.70 and >=.65 keep
    // (4,104): both averages .50 keep
    assert(run(Pruning.rwnp(scored)) === Set((1L, 101L), (2L, 102L), (4L, 104L)))
  }

  test("RWNP is a subset of WNP which is a subset of BCl") {
    val bcl = run(Pruning.bcl(scored))
    val wnp = run(Pruning.wnp(scored))
    val rwnp = run(Pruning.rwnp(scored))
    assert(rwnp.subsetOf(wnp))
    assert(wnp.subsetOf(bcl))
  }

  test("BLAST keeps valid pairs reaching r*(max_i + max_j)") {
    // r=0.35: (1,101): thr .35*1.8=.63 keep .90; (1,102): .35*1.6=.56, .60 keep
    // (1,103): .35*1.45=.5075, .55 keep; (2,101): .35*1.6=.56, .70 keep
    // (2,102): .35*1.4=.49, .70 keep; (4,104): .35*1.0=.35, .50 keep
    assert(run(Pruning.blast(scored)) === Set(
      (1L, 101L), (1L, 102L), (1L, 103L), (2L, 101L), (2L, 102L), (4L, 104L)))
  }

  test("BLAST with r=0.5 keeps only pairs matching both maxima scaled") {
    // thr: (1,101): .90 keep; (1,102): .80 drop; (1,103): .725 drop
    // (2,101): .80 drop; (2,102): .70 keep; (4,104): .50 keep
    assert(run(Pruning.blast(scored, 0.5)) === Set((1L, 101L), (2L, 102L), (4L, 104L)))
  }

  test("CEP keeps the global top-K by probability with deterministic ties") {
    // order: .90(1,101), .70(2,101), .70(2,102), .60(1,102), .55(1,103), .50(4,104)
    assert(run(Pruning.cep(scored, 3)) === Set((1L, 101L), (2L, 101L), (2L, 102L)))
    assert(run(Pruning.cep(scored, 1)) === Set((1L, 101L)))
    assert(run(Pruning.cep(scored, 0)) === Set.empty[(Long, Long)])
    assert(run(Pruning.cep(scored, 100)).size === 6)
  }

  test("CEP clamps a budget beyond Int.MaxValue to every valid pair, like LocalSweep") {
    val k = Int.MaxValue.toLong + 1
    assert(run(Pruning.cep(scored, k)) === run(Pruning.bcl(scored)))
    val lp = LocalSweep.LocalPairs(Array("prob"), Array(1L, 2L, 3L), Array(10L, 20L, 30L),
      Array(Array(0.9), Array(0.6), Array(0.2)), Array(true, false, false), 1, cepK = k, cnpK = 1)
    assert(LocalSweep.prune(lp, Array(0.9, 0.6, 0.2), "CEP").toSeq === Seq(0, 1))
  }

  test("CNP keeps pairs in either endpoint's top-k queue") {
    // k=1 queues: e1→(1,101); e2→(2,101) (tie .70/.70 broken by j asc);
    // e101→(1,101); e102→(2,102); e103→(1,103); e4/104→(4,104)
    assert(run(Pruning.cnp(scored, 1)) === Set(
      (1L, 101L), (2L, 101L), (2L, 102L), (1L, 103L), (4L, 104L)))
  }

  test("RCNP requires both queues (k=1)") {
    // mutual: (1,101) in Q1 and Q101; (4,104) mutual; (2,101)? Q101 top is (1,101) no.
    // (2,102): Q2 top is (2,101) no. (1,103): Q1 top is (1,101) no.
    assert(run(Pruning.rcnp(scored, 1)) === Set((1L, 101L), (4L, 104L)))
  }

  test("RCNP is a subset of CNP") {
    for (k <- Seq(1L, 2L, 3L)) {
      val cnp = run(Pruning.cnp(scored, k))
      val rcnp = run(Pruning.rcnp(scored, k))
      assert(rcnp.subsetOf(cnp), s"k=$k")
    }
  }

  test("large k makes CNP and RCNP keep all valid pairs") {
    assert(run(Pruning.cnp(scored, 100)).size === 6)
    assert(run(Pruning.rcnp(scored, 100)).size === 6)
  }

  test("byName dispatches every algorithm and rejects unknown names") {
    for (algo <- Pruning.weightBased ++ Pruning.cardinalityBased)
      Pruning.byName(algo, scored, 10, 2).collect()
    intercept[IllegalArgumentException] {
      Pruning.byName("nope", scored, 10, 2)
    }
  }

  test("WEP matches DuckDB") {
    Oracle.assertEquivalent(
      Pruning.wep(scored),
      """WITH v AS (
        |  SELECT CAST(i AS BIGINT) AS i, CAST(j AS BIGINT) AS j,
        |         CAST(prob AS DOUBLE) AS p
        |  FROM scored WHERE CAST(prob AS DOUBLE) >= 0.5
        |), m AS (SELECT AVG(p) AS mp FROM v)
        |SELECT i, j FROM v, m WHERE p >= mp
        |""".stripMargin,
      "scored" -> scored)
  }

  test("WNP matches DuckDB") {
    Oracle.assertEquivalent(
      Pruning.wnp(scored),
      """WITH v AS (
        |  SELECT CAST(i AS BIGINT) AS i, CAST(j AS BIGINT) AS j,
        |         CAST(prob AS DOUBLE) AS p
        |  FROM scored WHERE CAST(prob AS DOUBLE) >= 0.5
        |), pe AS (
        |  SELECT i AS eid, p FROM v UNION ALL SELECT j AS eid, p FROM v
        |), av AS (SELECT eid, AVG(p) AS ap FROM pe GROUP BY eid)
        |SELECT v.i AS i, v.j AS j FROM v
        |JOIN av ai ON ai.eid = v.i
        |JOIN av aj ON aj.eid = v.j
        |WHERE v.p >= ai.ap OR v.p >= aj.ap
        |""".stripMargin,
      "scored" -> scored)
  }

  test("BLAST matches DuckDB") {
    Oracle.assertEquivalent(
      Pruning.blast(scored),
      """WITH v AS (
        |  SELECT CAST(i AS BIGINT) AS i, CAST(j AS BIGINT) AS j,
        |         CAST(prob AS DOUBLE) AS p
        |  FROM scored WHERE CAST(prob AS DOUBLE) >= 0.5
        |), pe AS (
        |  SELECT i AS eid, p FROM v UNION ALL SELECT j AS eid, p FROM v
        |), mx AS (SELECT eid, MAX(p) AS mp FROM pe GROUP BY eid)
        |SELECT v.i AS i, v.j AS j FROM v
        |JOIN mx mi ON mi.eid = v.i
        |JOIN mx mj ON mj.eid = v.j
        |WHERE v.p >= 0.35 * (mi.mp + mj.mp)
        |""".stripMargin,
      "scored" -> scored)
  }

  test("CNP matches DuckDB (window formulation)") {
    Oracle.assertEquivalent(
      Pruning.cnp(scored, 2),
      """WITH v AS (
        |  SELECT CAST(i AS BIGINT) AS i, CAST(j AS BIGINT) AS j,
        |         CAST(prob AS DOUBLE) AS p
        |  FROM scored WHERE CAST(prob AS DOUBLE) >= 0.5
        |), pe AS (
        |  SELECT i AS eid, i, j, p FROM v UNION ALL SELECT j AS eid, i, j, p FROM v
        |), rk AS (
        |  SELECT eid, i, j,
        |         ROW_NUMBER() OVER (PARTITION BY eid ORDER BY p DESC, i ASC, j ASC) AS r
        |  FROM pe
        |)
        |SELECT DISTINCT i, j FROM rk WHERE r <= 2
        |""".stripMargin,
      "scored" -> scored)
  }

  test("RCNP matches DuckDB (window formulation)") {
    Oracle.assertEquivalent(
      Pruning.rcnp(scored, 2),
      """WITH v AS (
        |  SELECT CAST(i AS BIGINT) AS i, CAST(j AS BIGINT) AS j,
        |         CAST(prob AS DOUBLE) AS p
        |  FROM scored WHERE CAST(prob AS DOUBLE) >= 0.5
        |), pe AS (
        |  SELECT i AS eid, i, j, p FROM v UNION ALL SELECT j AS eid, i, j, p FROM v
        |), rk AS (
        |  SELECT eid, i, j,
        |         ROW_NUMBER() OVER (PARTITION BY eid ORDER BY p DESC, i ASC, j ASC) AS r
        |  FROM pe
        |), kept AS (SELECT eid, i, j FROM rk WHERE r <= 2)
        |SELECT a.i AS i, a.j AS j
        |FROM kept a JOIN kept b ON a.i = b.i AND a.j = b.j
        |WHERE a.eid = a.i AND b.eid = b.j
        |""".stripMargin,
      "scored" -> scored)
  }

  test("dirty-style ids (entity on both sides) aggregate into one node") {
    import spark.implicits._
    // Entity 5 appears as j in one pair and i in another; its average must
    // cover both: avg(0.9, 0.5) = 0.7.
    val df = Seq(
      Fixtures.Scored(1, 5, 0.9), Fixtures.Scored(5, 9, 0.5),
      Fixtures.Scored(2, 9, 0.8)).toDF()
    val out = Fixtures.pairSet(Pruning.rwnp(df))
    // (1,5): >= avg(1)=.9 and avg(5)=.7 keep. (5,9): .5 < .7 drop.
    // (2,9): >= avg(2)=.8, avg(9)=avg(.5,.8)=.65 keep.
    assert(out === Set((1L, 5L), (2L, 9L)))
  }
}
