package perfbench

import com.fasterxml.jackson.databind.ObjectMapper
import java.io.File
import java.lang.management.ManagementFactory
import org.apache.spark.sql.functions.col
import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.core._
import repro.er.Datasets
import scala.jdk.CollectionConverters._

/** Tests of the harness itself, on the unit-sized datasets. */
class HarnessSpec extends AnyFunSuite {
  private lazy val spark = SparkSpec.shared
  private lazy val probe = Probe.install(spark.sparkContext)

  private val unitCc = Workload("unit-cc", PipelineCfg(Datasets.unitCc.name, "BLAST", Scheme.blastOptimal))
  private val unitDirty = Workload("unit-dirty", PipelineCfg(Datasets.unitDirty.name, "RCNP", Scheme.rcnpOptimal))

  private def run(w: Workload, trace: Boolean): Result =
    Bench.run(spark, probe, w, seed = 5, trace,
      ManagementFactory.getRuntimeMXBean.getStartTime)

  private def table(w: Workload): Table =
    Table.build(Bench.dataset(spark, w.pipeline.dataset, 5), w.pipeline.schemes)

  /** BENCHMARK.json, found from the working directory upwards. */
  private lazy val declared = {
    val dir = Iterator.iterate(new File(".").getCanonicalFile)(_.getParentFile)
      .takeWhile(_ != null).find(d => new File(d, "BENCHMARK.json").isFile)
      .getOrElse(fail("BENCHMARK.json not found above the working directory"))
    new ObjectMapper().readTree(new File(dir, "BENCHMARK.json"))
  }

  private def declaredMetrics(key: String): Seq[(String, String)] =
    declared.get(key).elements().asScala.map(m => m.get("name").asText -> m.get("unit").asText).toSeq

  test("BENCHMARK.json declares exactly the metrics the harness prints, with the same units") {
    assert(declaredMetrics("end_to_end") === Metrics.endToEnd)
    assert(declaredMetrics("per_layer") === Metrics.perLayer)
    assert(declared.get("workloads").elements().asScala.map(_.get("name").asText).toSeq ===
      Bench.workloads.map(_.name))
  }

  test("one command prints every metric by name and unit, untraced and traced") {
    for ((trace, expected) <- Seq(false -> Metrics.endToEnd, true -> Metrics.perLayer)) {
      val r = run(unitCc, trace)
      assert(r.correct, r.notes)
      assert(r.failed === 0)
      assert(r.attempted === 1 + Bench.OpsPerRun + (if (trace) 1 else 0))
      val line = new ObjectMapper().readTree(Main.json(r))
      assert(line.fieldNames().asScala.toSeq === Seq("correct", "attempted", "failed", "metrics"))
      val metrics = line.get("metrics")
      assert(metrics.fieldNames().asScala.toSet === expected.map(_._1).toSet)
      for ((name, unit) <- expected) {
        assert(metrics.get(name).get("unit").asText === unit, name)
        assert(metrics.get(name).get("value").isNumber, name)
      }
    }
  }

  test("the reference scores every pair bit for bit as Trainer.score does") {
    for (w <- Seq(unitCc, unitDirty)) {
      val t = table(w)
      val cols = Scheme.featureColumns(w.pipeline.schemes)
      val ts = Trainer.sample(t.labeled, cols, 25, 25, 5)
      val model = LogisticRegression.train(ts.featureNames, ts.x, ts.y)
      val df = Trainer.score(t.labeled, model)
        .select(col("i").cast("long"), col("j").cast("long"), col("prob")).collect()
        .map(r => (r.getLong(0), r.getLong(1)) -> r.getDouble(2)).toMap
      val probs = Bench.referenceProbs(t.lp, cols.map(t.lp.columnIndex).toArray, model)
      assert(t.lp.i.indices.forall(r => probs(r) == df((t.lp.i(r), t.lp.j(r)))), w.name)
      val run = Pipeline.runCached(t.labeled, t.ds.groundTruth, t.nDup, t.bc, w.pipeline.schemes,
        w.pipeline.algo, 25, 25, 5).metrics
      val ref = Bench.reference(t, w.pipeline, 5)
      assert((ref.retained, ref.truePositives) === (run.retained, run.truePositives), w.name)
    }
  }

  // A program defect the benchmark's first checks found: `LRModel.probability`
  // rounds differently from the Catalyst column, so `LocalSweep.run` ranks two
  // near-tied pairs of an RCNP queue the other way round. The case: D4K-A at
  // seed 1811119843, feature mask 220, 250 labels per class. Both paths retain
  // 3752 pairs, with 2251 and 2250 true positives. Once the program is fixed
  // the test fails: drop `pendingUntilFixed` then.
  test("LocalSweep.run agrees with Pipeline.runCached on a near-tied RCNP run (known defect)") {
    pendingUntilFixed {
      val schemes = Scheme.fromMask(220)
      val t = Table.build(Bench.dataset(spark, Bench.D4K.name, 1811119843L), schemes)
      val seed = -1120947999952782298L
      val local = LocalSweep.run(t.lp, schemes, "RCNP", 250, 250, seed)
      val df = Pipeline.runCached(t.labeled, t.ds.groundTruth, t.nDup, t.bc, schemes, "RCNP",
        250, 250, seed).metrics
      assert((local.retained, local.truePositives) === (df.retained, df.truePositives))
    }
  }

  test("the traced composition reproduces the untraced op on both ER flavours") {
    for (w <- Seq(unitCc, unitDirty)) {
      val t = table(w)
      val op = Bench.op(spark, probe, t.ds, w.pipeline, 5)
      val traced = Bench.tracedOp(spark, new Tracer(spark.sparkContext, probe),
        t.ds, w.pipeline, 5)
      assert(traced.identity === op.identity, w.name)
    }
  }

  test("self time never goes negative") {
    val t = table(unitDirty)
    val tracer = new Tracer(spark.sparkContext, probe)
    val traced = Bench.tracedOp(spark, tracer, t.ds, unitDirty.pipeline, 5)
    assert(traced.spans.nonEmpty)
    traced.spans.foreach(s => assert(s.selfS >= 0, s))
    traced.spans.foreach(s => assert(s.selfS <= s.wallS, s))
    val (_, nested) = tracer.trace("outer") {
      tracer.span("a")(tracer.span("b")(Thread.sleep(5)))
      tracer.span("c")(Thread.sleep(5))
    }
    assert(nested.map(_.name) === Seq("outer", "a", "b", "c"))
    nested.foreach(s => assert(s.selfS >= 0, s))
    val byName = nested.map(s => s.name -> s).toMap
    assert(byName("a").selfS <= byName("a").wallS - byName("b").wallS + 1e-9)
  }

  test("an untraced op's job count is exactly the jobs Spark ran for it") {
    val t = table(unitCc)
    val sc = spark.sparkContext
    sc.setJobGroup("harness-op", "op")
    val o = try Bench.op(spark, probe, t.ds, unitCc.pipeline, 5) finally sc.clearJobGroup()
    assert(o.counts.jobs > 0)
    assert(o.counts.jobs === sc.statusTracker.getJobIdsForGroup("harness-op").length.toLong)
  }

  test("arguments are parsed strictly") {
    val a = Main.parse(Array("--workload", "w", "--seed", "3", "--seconds", "2", "--trace", "1"))
    assert(a === Main.Args("w", 3L, 2.0, trace = true, "."))
    intercept[IllegalArgumentException](Main.parse(Array("--workload", "w", "--seed", "3", "--seconds", "2", "--trace", "2")))
    intercept[IllegalArgumentException](Main.parse(Array("--workload", "w", "--seed", "3", "--trace", "0")))
    intercept[IllegalArgumentException](Main.parse(Array("--bogus", "1")))
    intercept[IllegalArgumentException](Bench.workload("no-such-workload"))
  }
}
