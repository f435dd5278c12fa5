package perfbench

import org.apache.spark.SparkContext
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.blocking._
import repro.core._
import repro.er.{Datasets, DirtyConfig, ErDataset, ErSynth}
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

/** One timed pipeline op: `BlockStats.build` followed by `Pipeline.run` at
  * [[Bench.PipelinePerClass]] labels per class.
  */
final case class PipelineCfg(dataset: String, algo: String, schemes: Seq[Scheme])

/** A workload: the dataset and configuration of its pipeline op. */
final case class Workload(name: String, pipeline: PipelineCfg)

/** Everything a run prints: the result line's fields plus the spans. */
final case class Result(correct: Boolean, attempted: Int, failed: Int,
                        metrics: Seq[(String, Double)], spans: Seq[Span], notes: String)

/** The program's inputs for one workload and seed, with the labeled feature
  * table of the op's schemes materialised and collected to the driver, where
  * the reference result of the op is computed.
  */
final class Table(val ds: ErDataset, val nDup: Long, val bc: BlockCollection,
                  val labeled: DataFrame, val lp: LocalSweep.LocalPairs)

object Table {
  def build(ds: ErDataset, schemes: Seq[Scheme]): Table = {
    val nDup = ds.groundTruth.count()
    val bc = BlockStats.build(ds)
    val labeled = Features.labeled(Features.compute(bc, schemes), ds.groundTruth).localCheckpoint()
    new Table(ds, nDup, bc, labeled, LocalSweep.collect(labeled, schemes, bc, nDup))
  }
}

object Bench {

  val PipelinePerClass = 25
  /** Timed ops per run; the op metrics are their medians. */
  val OpsPerRun = 2

  /** D10K-A at 4,000 entities, its mid vocabulary scaled alike (9,000 →
    * 3,600) so blocks stay as small. D10K-A itself costs about 75 s a run,
    * too much for the benchmark's per-run budget.
    */
  val D4K: DirtyConfig = Datasets.scalability.find(_.name == "D10K-A").get
    .copy(name = "D4K-A", nEntities = 4000, midVocab = 3600)

  val workloads: Seq[Workload] = Seq(
    Workload("cc-abtbuy-blast", PipelineCfg("AbtBuy-A", "BLAST", Scheme.blastOptimal)),
    Workload("dirty-d4k-rcnp", PipelineCfg(D4K.name, "RCNP", Scheme.rcnpOptimal)),
  )

  def workload(name: String): Workload =
    workloads.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload $name; expected one of ${workloads.map(_.name).mkString(", ")}"))

  /** A registered dataset config, re-seeded. The program sees only the result. */
  def dataset(spark: SparkSession, name: String, seed: Long): ErDataset =
    (Datasets.cleanClean :+ Datasets.unitCc).find(_.name == name)
      .map(c => ErSynth.cleanClean(spark, c.copy(seed = seed)))
      .orElse((Datasets.scalability :+ D4K :+ Datasets.unitDirty).find(_.name == name)
        .map(c => ErSynth.dirty(spark, c.copy(seed = seed))))
      .getOrElse(throw new IllegalArgumentException(s"unknown dataset $name"))

  private[perfbench] def since(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** Runs `body`, then unpersists every RDD it persisted (localCheckpoint
    * and cache), so repeated ops do not pile up cached blocks.
    */
  def releasing[T](sc: SparkContext)(body: => T): T = {
    val before = sc.getPersistentRDDs.keySet
    try body
    finally sc.getPersistentRDDs.foreach { case (id, rdd) =>
      if (!before(id)) rdd.unpersist(blocking = true)
    }
  }

  // -------------------------------------------------------------- reference

  /** Probabilities of every collected pair, in the arithmetic order of
    * `LRModel.probabilityColumn`: intercept + Σ w·((x − m)/s), folded left,
    * then `StrictMath.exp`, which Spark's `exp` calls. This reproduces
    * `Trainer.score` bit for bit. `LRModel.probability` rounds differently
    * (w·(x − m)/s and `Math.exp`), and that changes near-tied RCNP ranks
    * (README, Known defect).
    */
  def referenceProbs(lp: LocalSweep.LocalPairs, colIdx: Array[Int], m: LRModel): Array[Double] =
    Array.tabulate(lp.size) { r =>
      val z = colIdx.indices.foldLeft(m.intercept)((acc, k) =>
        acc + m.weights(k) * ((lp.x(r)(colIdx(k)) - m.means(k)) / m.stds(k)))
      1.0 / (1.0 + StrictMath.exp(-z))
    }

  /** The result an op must give, computed on the driver from the collected
    * table: `LocalSweep.sample`, `LogisticRegression.train`,
    * [[referenceProbs]], `LocalSweep.prune`. These are the relations
    * `LocalSweepEquivalenceSpec` tests: the same sample, the same model, the
    * same retained pairs for the same probabilities.
    */
  def reference(t: Table, cfg: PipelineCfg, seed: Long): Evaluation.Metrics = {
    val colIdx = Scheme.featureColumns(cfg.schemes).map(t.lp.columnIndex).toArray
    val ts = LocalSweep.sample(t.lp, colIdx, PipelinePerClass, PipelinePerClass, seed)
    val model = LogisticRegression.train(ts.featureNames, ts.x, ts.y)
    LocalSweep.metricsOf(t.lp, LocalSweep.prune(t.lp, referenceProbs(t.lp, colIdx, model), cfg.algo))
  }

  // ------------------------------------------------------------ pipeline op

  /** The outcome of one untraced op, and the identity it must reproduce:
    * (|B|, ‖B‖, retained, true positives).
    */
  final case class OpResult(e2eS: Double, rtS: Double, counts: Counts, metrics: Evaluation.Metrics,
                            nBlocks: Long, totComps: Double) {
    def identity: (Long, Double, Long, Long) = (nBlocks, totComps, metrics.retained, metrics.truePositives)
  }

  def op(spark: SparkSession, probe: Probe, ds: ErDataset, cfg: PipelineCfg, seed: Long): OpResult =
    releasing(spark.sparkContext) {
      val before = probe.total
      val t0 = System.nanoTime()
      val bc = BlockStats.build(ds)
      val r = Pipeline.run(ds, bc, cfg.schemes, cfg.algo, PipelinePerClass, PipelinePerClass, seed)
      val e2e = since(t0)
      OpResult(e2e, r.runtimeSec, probe.total - before, r.metrics, bc.nBlocks, bc.totComps)
    }

  /** The layers of `op`, called one at a time in the same order, each
    * layer's output materialised inside its own span.
    */
  final case class TracedOp(identity: (Long, Double, Long, Long), layers: Map[String, Double],
                            rtSelfS: Double, spans: Seq[Span])

  /** Layers whose self time makes up the paper's RT. */
  val RtLayers: Seq[String] = Seq("Features", "Features.labeled", "Trainer.sample",
    "LogisticRegression.train", "Trainer.score", "Pruning")

  def tracedOp(spark: SparkSession, tracer: Tracer, ds: ErDataset,
               cfg: PipelineCfg, seed: Long): TracedOp = releasing(spark.sparkContext) {
    val nDup = ds.groundTruth.count()
    def mat(df: DataFrame): DataFrame = df.localCheckpoint()
    val gt = ds.groundTruth
    val (out, spans) = tracer.trace("Pipeline") {
      val assigned = tracer.span("TokenBlocking")(mat(TokenBlocking.assign(ds.profiles)))
      val purged = tracer.span("BlockPurging")(mat(BlockPurging(assigned, ds.nEntities)))
      val filtered = tracer.span("BlockFiltering")(mat(BlockFiltering(purged)))
      val bc = tracer.span("BlockStats")(
        BlockStats.fromAssignments(filtered, ds.dirty, ds.n1, if (ds.dirty) 0L else ds.n2))
      val features = tracer.span("Features")(mat(Features.compute(bc, cfg.schemes)))
      val labeled = tracer.span("Features.labeled")(mat(Features.labeled(features, gt)))
      val cols = Scheme.featureColumns(cfg.schemes)
      val ts = tracer.span("Trainer.sample")(
        Trainer.sample(labeled, cols, PipelinePerClass, PipelinePerClass, seed))
      val model = tracer.span("LogisticRegression.train")(
        LogisticRegression.train(ts.featureNames, ts.x, ts.y))
      val scored = tracer.span("Trainer.score")(mat(Trainer.score(labeled, model)))
      val retained = tracer.span("Pruning") {
        val r = Pruning.byName(cfg.algo, scored, bc.cepK, bc.cnpK).cache()
        r.count()
        r
      }
      val metrics = tracer.span("Evaluation")(Evaluation.evaluate(retained, gt, nDup))
      // Row counts of materialised outputs: outside the layer spans.
      val rows = Map(
        "TokenBlocking" -> assigned.count().toDouble,
        "BlockPurging" -> purged.count().toDouble,
        "BlockFiltering" -> filtered.count().toDouble,
        "Features" -> features.count().toDouble,
        "valid" -> scored.filter(col("prob") >= 0.5).count().toDouble)
      val pos = ts.y.count(_ == 1)
      val fill = math.min(pos.toDouble / PipelinePerClass, (ts.size - pos).toDouble / PipelinePerClass)
      (bc, metrics, rows, fill)
    }
    val (bc, metrics, rows, fill) = out
    val byName = spans.map(s => s.name -> s).toMap
    val cores = spark.sparkContext.defaultParallelism
    def self(n: String) = byName(n).selfS
    def c(n: String) = byName(n).counts
    def busy(n: String) = c(n).runTimeMs / 1e3 / (self(n) * cores)
    val layers = Map(
      "TokenBlocking.wall_s" -> self("TokenBlocking"),
      "TokenBlocking.rows_out" -> rows("TokenBlocking"),
      "BlockPurging.wall_s" -> self("BlockPurging"),
      "BlockPurging.rows_out" -> rows("BlockPurging"),
      "BlockFiltering.wall_s" -> self("BlockFiltering"),
      "BlockFiltering.rows_out" -> rows("BlockFiltering"),
      "BlockStats.wall_s" -> self("BlockStats"),
      "BlockStats.jobs" -> c("BlockStats").jobs.toDouble,
      "BlockStats.shuffle_mb" -> c("BlockStats").shuffleMb,
      "BlockStats.blocks" -> bc.nBlocks.toDouble,
      "BlockStats.comparisons" -> bc.totComps,
      "Features.wall_s" -> self("Features"),
      "Features.jobs" -> c("Features").jobs.toDouble,
      "Features.shuffle_mb" -> c("Features").shuffleMb,
      "Features.spill_mb" -> c("Features").spillMb,
      "Features.busy_share" -> busy("Features"),
      "Features.rows_out" -> rows("Features"),
      "Features.distinct_ratio" -> rows("Features") / bc.totComps,
      "Features.labeled.wall_s" -> self("Features.labeled"),
      "Features.labeled.shuffle_mb" -> c("Features.labeled").shuffleMb,
      "Trainer.sample.wall_s" -> self("Trainer.sample"),
      "Trainer.sample.jobs" -> c("Trainer.sample").jobs.toDouble,
      "Trainer.sample.shuffle_mb" -> c("Trainer.sample").shuffleMb,
      "Trainer.sample.fill_ratio" -> fill,
      "LogisticRegression.train.wall_s" -> self("LogisticRegression.train"),
      "Trainer.score.wall_s" -> self("Trainer.score"),
      "Pruning.wall_s" -> self("Pruning"),
      "Pruning.jobs" -> c("Pruning").jobs.toDouble,
      "Pruning.shuffle_mb" -> c("Pruning").shuffleMb,
      "Pruning.spill_mb" -> c("Pruning").spillMb,
      "Pruning.busy_share" -> busy("Pruning"),
      "Pruning.valid_pairs" -> rows("valid"),
      "Pruning.retained_pairs" -> metrics.retained.toDouble,
      "Pruning.keep_ratio" -> metrics.retained / rows("valid"),
      "Evaluation.wall_s" -> self("Evaluation"),
      "Evaluation.jobs" -> c("Evaluation").jobs.toDouble,
      "Evaluation.f1" -> metrics.f1,
    )
    TracedOp((bc.nBlocks, bc.totComps, metrics.retained, metrics.truePositives), layers,
      RtLayers.map(self).sum, spans)
  }

  // ------------------------------------------------------------------- run

  /** One benchmark run: set-up, [[OpsPerRun]] timed pipeline ops, and with
    * tracing the traced composition.
    *
    * A run has to stay near a minute, and an op on `dirty-d4k-rcnp` costs
    * 10-15 s after a set-up of 20-25 s, so two ops are timed. The set-up
    * builds the feature table the reference needs and runs
    * `Pipeline.runCached` on it, which warms up every stage of the op.
    *
    * @param jvmStartMs wall-clock time the JVM started; `setup_s` runs from
    *                   there to the start of the first timed op
    */
  def run(spark: SparkSession, probe: Probe, w: Workload, seed: Long, trace: Boolean,
          jvmStartMs: Long): Result = {
    val cfg = w.pipeline
    def clockS = (System.currentTimeMillis() - jvmStartMs) / 1e3
    def phase(what: String): Unit =
      Console.err.println(f"[perfbench] ${w.name}: $what done at $clockS%.1f s")
    var attempted = 0
    var failed = 0
    val notes = ArrayBuffer.empty[String]
    def result(correct: Boolean, metrics: Seq[(String, Double)] = Nil, spans: Seq[Span] = Nil) =
      Result(correct && failed == 0, attempted, failed, metrics, spans, notes.mkString("; "))
    def fail(what: String): Unit = { failed += 1; notes += what; Console.err.println(s"[perfbench] FAILED: $what") }
    def attempt[T](what: String)(body: => T): Option[T] = {
      attempted += 1
      try Some(body)
      catch { case NonFatal(e) => e.printStackTrace(); fail(s"$what threw ${e.getClass.getSimpleName}"); None }
    }

    // Set-up: inputs, the collected feature table and the reference result,
    // then `Pipeline.runCached` on the table, which is checked too.
    val table = Table.build(dataset(spark, cfg.dataset, seed), cfg.schemes)
    phase("inputs")
    val expected = reference(table, cfg, seed)
    def check(what: String, got: Evaluation.Metrics): Unit =
      if ((got.retained, got.truePositives) != (expected.retained, expected.truePositives))
        fail(s"$what: (retained, tp) = (${got.retained}, ${got.truePositives}), " +
          s"reference (${expected.retained}, ${expected.truePositives})")
    attempt("Pipeline.runCached")(releasing(spark.sparkContext)(Pipeline.runCached(table.labeled,
      table.ds.groundTruth, table.nDup, table.bc, cfg.schemes, cfg.algo, PipelinePerClass,
      PipelinePerClass, seed))).foreach(r => check("Pipeline.runCached", r.metrics))
    System.gc()
    System.gc()
    val rt = Runtime.getRuntime
    val heapMb = (rt.totalMemory() - rt.freeMemory()) / 1e6
    val setupS = clockS
    phase("set-up")

    // The timed ops, then the traced composition when tracing.
    val ops = (1 to OpsPerRun).map { k =>
      val o = attempt(s"op $k")(op(spark, probe, table.ds, cfg, seed)).getOrElse(return result(false))
      check(s"op $k", o.metrics)
      phase(f"op $k (e2e ${o.e2eS}%.2f s, rt ${o.rtS}%.2f s)")
      o
    }
    Console.err.println(f"[perfbench] ${w.name} seed=$seed: |E|=${table.ds.nEntities} " +
      f"|B|=${table.bc.nBlocks} ||B||=${table.bc.totComps}%.0f |C|=${table.lp.size}")
    def median(f: OpResult => Double): Double = {
      val v = ops.map(f).sorted
      (v((v.size - 1) / 2) + v(v.size / 2)) / 2
    }
    if (!trace) result(true, Seq(
      "setup_s" -> setupS,
      "setup_heap_mb" -> heapMb,
      "e2e_s" -> median(_.e2eS),
      "rt_s" -> median(_.rtS),
      "shuffle_b_per_pair" -> median(_.counts.shuffleBytes.toDouble) / table.lp.size,
      "spark_jobs" -> median(_.counts.jobs.toDouble),
      "recall" -> ops.head.metrics.recall,
    ))
    else {
      val t = attempt("traced op")(tracedOp(spark, new Tracer(spark.sparkContext, probe), table.ds,
        cfg, seed)).getOrElse(return result(false))
      if (t.identity != ops.head.identity)
        fail(s"traced op gives (|B|, ||B||, retained, tp) = ${t.identity}, untraced op ${ops.head.identity}")
      result(true, t.layers.toSeq :+ ("Pipeline.rework_ratio" -> median(_.rtS) / t.rtSelfS), t.spans)
    }
  }
}
