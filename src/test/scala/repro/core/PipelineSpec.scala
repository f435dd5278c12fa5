package repro.core

import repro.{Checkpoint, SparkSpec}
import repro.blocking.{BlockCollection, BlockStats}
import repro.er.{Datasets, ErDataset, ErSynth}

class PipelineSpec extends SparkSpec {

  private lazy val ds = ErSynth.cleanClean(spark, Datasets.unitCc)
  private lazy val bc = BlockStats.build(ds)
  private lazy val dd = ErSynth.dirty(spark, Datasets.unitDirty)
  private lazy val dbc = BlockStats.build(dd)

  test("blocking metrics: near-complete recall, low precision") {
    val m = Pipeline.blockingMetrics(ds, bc)
    assert(m.recall > 0.85, s"blocking recall ${m.recall}")
    assert(m.precision < 0.2, s"blocking precision ${m.precision}")
  }

  test("BCl run: precision improves over blocking without destroying recall") {
    val blocking = Pipeline.blockingMetrics(ds, bc)
    val r = Pipeline.run(ds, bc, Scheme.blastOptimal, "BCl", 25, 25, seed = 1)
    assert(r.metrics.precision > blocking.precision * 2,
      s"meta-blocking should multiply precision (${blocking.precision} -> ${r.metrics.precision})")
    assert(r.metrics.recall > 0.6, s"recall collapsed: ${r.metrics.recall}")
  }

  test("BLAST retains a subset of BCl and equal-or-higher precision") {
    val bclRun = Pipeline.run(ds, bc, Scheme.blastOptimal, "BCl", 25, 25, 1)
    val blastRun = Pipeline.run(ds, bc, Scheme.blastOptimal, "BLAST", 25, 25, 1)
    assert(blastRun.metrics.retained <= bclRun.metrics.retained)
    assert(blastRun.metrics.precision >= bclRun.metrics.precision - 1e-12)
  }

  test("RCNP retains no more pairs than CNP") {
    val cnpRun = Pipeline.run(ds, bc, Scheme.rcnpOptimal, "CNP", 25, 25, 1)
    val rcnpRun = Pipeline.run(ds, bc, Scheme.rcnpOptimal, "RCNP", 25, 25, 1)
    assert(rcnpRun.metrics.retained <= cnpRun.metrics.retained)
    assert(rcnpRun.metrics.precision >= cnpRun.metrics.precision - 1e-12)
  }

  test("run reports a positive runtime and a trained model") {
    val r = Pipeline.run(ds, bc, Scheme.blastOptimal, "BLAST", 25, 25, 2)
    assert(r.runtimeSec > 0)
    assert(r.model.weights.length === Scheme.featureColumns(Scheme.blastOptimal).size)
  }

  /** run and runCached share one train → score → prune → evaluate body; only
    * the owner of the labeled table differs. Each algorithm uses its paper
    * configuration's feature set, so the LCP pass is covered too.
    */
  private def assertRunEqualsRunCached(tag: String, d: ErDataset, b: BlockCollection): Unit =
    for ((schemes, algos) <- Seq(Scheme.blastOptimal -> Pruning.weightBased,
                                 Scheme.rcnpOptimal -> Pruning.cardinalityBased))
      Checkpoint.using(Features.labeled(Features.compute(b, schemes), d.groundTruth)) { labeled =>
        for (algo <- algos) {
          val a = Pipeline.run(d, b, schemes, algo, 25, 25, 5)
          val c = Pipeline.runCached(labeled, d.groundTruth, d.groundTruth.count(),
            b, schemes, algo, 25, 25, 5)
          assert((a.metrics.retained, a.metrics.truePositives) ===
            (c.metrics.retained, c.metrics.truePositives), s"$tag/$algo metrics")
          assert(a.model.weights.toSeq === c.model.weights.toSeq, s"$tag/$algo weights")
          assert(a.model.intercept === c.model.intercept, s"$tag/$algo intercept")
        }
      }

  test("runCached equals run for the same configuration") {
    assertRunEqualsRunCached("clean-clean", ds, bc)
  }

  test("dirty: runCached equals run for every algorithm") {
    assertRunEqualsRunCached("dirty", dd, dbc)
  }

  test("run frees everything it persists") {
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.keySet
    for (algo <- Seq("BLAST", "RCNP"))
      Pipeline.run(ds, bc, Scheme.rcnpOptimal, algo, 25, 25, 3)
    assert(sc.getPersistentRDDs.keySet === before)
  }

  test("dirty ER end-to-end") {
    val blocking = Pipeline.blockingMetrics(dd, dbc)
    val r = Pipeline.run(dd, dbc, Scheme.blastOptimal, "BLAST", 25, 25, 1)
    assert(blocking.recall > 0.8)
    assert(r.metrics.precision > blocking.precision)
    assert(r.metrics.recall > 0.6)
  }

  test("different training seeds give different but sane results") {
    val runs = Seq(1L, 2L, 3L).map(s =>
      Pipeline.run(ds, bc, Scheme.blastOptimal, "BLAST", 25, 25, s).metrics)
    assert(runs.map(_.recall).forall(_ > 0.5))
    assert(runs.map(_.f1).forall(_ > 0.1))
  }
}
