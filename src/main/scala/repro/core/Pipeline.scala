package repro.core

import org.apache.spark.sql.DataFrame
import repro.Checkpoint
import repro.blocking.{BlockCollection, BlockStats}
import repro.er.ErDataset

/** End-to-end Generalized Supervised Meta-blocking: blocking → features →
  * balanced training sample → probabilistic classifier → pruning → metrics.
  */
object Pipeline {

  /** Result of one meta-blocking run. `runtimeSec` covers feature
    * generation, training, scoring and pruning (the paper's RT definition,
    * §2.1.1) but not the effectiveness evaluation itself.
    */
  final case class RunResult(metrics: Evaluation.Metrics, runtimeSec: Double, model: LRModel)

  /** Blocking-only effectiveness (Table 2): the candidate pairs of the block
    * collection evaluated against the ground truth.
    */
  def blockingMetrics(ds: ErDataset, bc: BlockCollection): Evaluation.Metrics = {
    val c = BlockStats.candidatePairs(bc)
    Evaluation.evaluate(c, ds.groundTruth, ds.groundTruth.count())
  }

  /** One full supervised meta-blocking run over a prepared block collection.
    *
    * The labeled feature table of `schemes` is computed once, inside the
    * timed region, and materialised: sampling, scoring, pruning and
    * evaluation all read that one table, and it is freed before returning.
    * RT therefore still reflects the cost profile of the chosen feature set
    * (LCP-free sets are cheaper), but each feature is computed only once.
    *
    * @param algo        one of [[Pruning.weightBased]] / [[Pruning.cardinalityBased]]
    * @param schemes     feature set
    * @param nPos / nNeg labelled instances per class
    */
  def run(
      ds: ErDataset,
      bc: BlockCollection,
      schemes: Seq[Scheme],
      algo: String,
      nPos: Int,
      nNeg: Int,
      seed: Long,
      blastR: Double = Pruning.BlastRatio,
  ): RunResult = {
    val nDup = ds.groundTruth.count()
    val t0 = System.nanoTime()
    Checkpoint.using(Features.labeled(Features.compute(bc, schemes), ds.groundTruth)) { labeled =>
      val featureSec = (System.nanoTime() - t0) / 1e9
      val r = runCached(labeled, ds.groundTruth, nDup, bc, schemes, algo, nPos, nNeg, seed, blastR)
      r.copy(runtimeSec = featureSec + r.runtimeSec)
    }
  }

  /** [[run]] over a labeled feature table the caller has already built and
    * materialised — used by effectiveness sweeps that reuse one table for
    * many runs. RT then covers training, scoring and pruning only.
    */
  def runCached(
      labeled: DataFrame,
      groundTruth: DataFrame,
      nDup: Long,
      bc: BlockCollection,
      schemes: Seq[Scheme],
      algo: String,
      nPos: Int,
      nNeg: Int,
      seed: Long,
      blastR: Double = Pruning.BlastRatio,
  ): RunResult = {
    val cols = Scheme.featureColumns(schemes)
    val t0 = System.nanoTime()
    val ts = Trainer.sample(labeled, cols, nPos, nNeg, seed)
    val model = LogisticRegression.train(ts.featureNames, ts.x, ts.y)
    val scored = Trainer.score(labeled, model)
    val retained = Pruning.byName(algo, scored, bc.cepK, bc.cnpK, blastR).cache()
    retained.count() // materialize: end of the timed region
    val rt = (System.nanoTime() - t0) / 1e9
    val metrics = Evaluation.evaluate(retained, groundTruth, nDup)
    retained.unpersist()
    RunResult(metrics, rt, model)
  }
}
