package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Effectiveness measures of §2.1. Recall (Pairs Completeness) is computed
  * against the full ground truth |D| — duplicates already missed by blocking
  * count as misses, exactly as in Table 2 of the paper.
  */
object Evaluation {

  final case class Metrics(
      recall: Double,
      precision: Double,
      f1: Double,
      retained: Long,
      truePositives: Long,
  ) {
    override def toString: String =
      f"Re=$recall%.4f Pr=$precision%.4g F1=$f1%.4f |C'|=$retained tp=$truePositives"
  }

  /** One query: the retained pairs and the ground truth are unioned with
    * `ret`/`dup` flags and grouped by pair, so repeated rows on either side
    * collapse, and one global sum counts the retained and the true-positive
    * pairs.
    *
    * @param retained pruned pair set (i, j)
    * @param groundTruth duplicate pairs (id1, id2), oriented like candidates
    * @param nDuplicates |D|
    */
  def evaluate(retained: DataFrame, groundTruth: DataFrame, nDuplicates: Long): Metrics = {
    val flagged = retained.select(col("i"), col("j"), lit(1).as("ret"), lit(0).as("dup"))
      .union(groundTruth.select(col("id1").as("i"), col("id2").as("j"), lit(0).as("ret"),
        lit(1).as("dup")))
    val counts = flagged.groupBy("i", "j").agg(max("ret").as("ret"), max("dup").as("dup"))
      .agg(coalesce(sum("ret"), lit(0L)), coalesce(sum(col("ret") * col("dup")), lit(0L)))
      .collect()(0)
    of(counts.getLong(1), counts.getLong(0), nDuplicates)
  }

  /** Metrics from raw counts (shared with the driver-side sweep path). */
  def of(tp: Long, retained: Long, nDuplicates: Long): Metrics = {
    val re = if (nDuplicates == 0) 0.0 else tp.toDouble / nDuplicates
    val pr = if (retained == 0) 0.0 else tp.toDouble / retained
    val f1 = if (re + pr == 0) 0.0 else 2 * re * pr / (re + pr)
    Metrics(re, pr, f1, retained, tp)
  }
}
