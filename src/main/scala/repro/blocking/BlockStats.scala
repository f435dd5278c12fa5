package repro.blocking

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.Checkpoint
import repro.er.ErDataset

/** A redundancy-positive block collection ready for meta-blocking.
  *
  * Invariant: `blockStats` (and `eb`, which is restricted to the same block
  * keys) contain only blocks with ‖b‖ > 0, i.e. blocks that induce at least
  * one comparison — a singleton block, or a Clean-Clean block whose entities
  * all come from one source, contributes nothing to meta-blocking (see
  * DESIGN.md §5).
  *
  * @param eb         (eid, src, bid) entity-block assignments
  * @param blockStats (bid, bSize = |b|, bComps = ‖b‖)
  * @param dirty      Dirty ER (single collection) vs Clean-Clean ER
  * @param n1         |E1| (or |E| for dirty)
  * @param n2         |E2| (0 for dirty)
  * @param nBlocks    |B|
  * @param totComps   ‖B‖ = Σ_b ‖b‖ (comparisons incl. redundant ones)
  * @param sumBlockSizes Σ_b |b| — drives CEP's K and CNP's k
  */
final case class BlockCollection(
    eb: DataFrame,
    blockStats: DataFrame,
    dirty: Boolean,
    n1: Long,
    n2: Long,
    nBlocks: Long,
    totComps: Double,
    sumBlockSizes: Long,
) {
  def nEntities: Long = if (dirty) n1 else n1 + n2

  /** CEP's global cardinality threshold: K = ⌊Σ|b| / 2⌋ [20]. */
  def cepK: Long = sumBlockSizes / 2

  /** CNP/RCNP's per-entity threshold: k = max(1, ⌊Σ|b| / (|E1|+|E2|)⌋) [20]. */
  def cnpK: Long = {
    require(nEntities > 0,
      s"CNP's per-entity budget k needs at least one entity, but |E1| + |E2| = $nEntities")
    math.max(1L, sumBlockSizes / nEntities)
  }
}

/** Builds [[BlockCollection]]s and the distinct candidate-pair set C. */
object BlockStats {

  /** Block-level statistics for the assignments in `eb`, keeping only blocks
    * with at least one comparison. ‖b‖ = |b∩E1|·|b∩E2| for Clean-Clean and
    * |b|·(|b|−1)/2 for Dirty ER.
    */
  def fromAssignments(eb: DataFrame, dirty: Boolean, n1: Long, n2: Long): BlockCollection =
    // `eb` is usually the lazy blocking chain (Token Blocking → Purging →
    // Filtering); materialise it once for the two tables read from it.
    Checkpoint.using(eb.select("eid", "src", "bid"))(collection(_, dirty, n1, n2))

  private def collection(eb: DataFrame, dirty: Boolean, n1: Long, n2: Long): BlockCollection = {
    val grouped = eb.groupBy("bid").agg(
      sum(when(col("src") === 1, 1L).otherwise(0L)).as("cnt1"),
      sum(when(col("src") === 2, 1L).otherwise(0L)).as("cnt2"))
    // localCheckpoint (not cache): besides materializing, it truncates the
    // lineage, keeping downstream Catalyst plans small — the meta-blocking
    // pipelines reference these tables several times per query, and nested
    // full lineages make plan handling (e.g. plan descriptions) quadratic.
    val stats = grouped
      .withColumn("bSize", col("cnt1") + col("cnt2"))
      .withColumn("bComps",
        if (dirty) (col("bSize") * (col("bSize") - 1) / 2).cast("double")
        else (col("cnt1") * col("cnt2")).cast("double"))
      .filter(col("bComps") > 0)
      .select("bid", "bSize", "bComps")
      .localCheckpoint()

    val globals = stats.agg(
      count(lit(1)).as("nBlocks"),
      coalesce(sum("bComps"), lit(0.0)).as("totComps"),
      coalesce(sum("bSize"), lit(0L)).as("sumSizes")).collect()(0)

    val ebKept = eb.join(stats.select("bid"), Seq("bid"), "left_semi").localCheckpoint()

    BlockCollection(
      eb = ebKept,
      blockStats = stats,
      dirty = dirty,
      n1 = n1,
      n2 = n2,
      nBlocks = globals.getLong(0),
      totComps = globals.getDouble(1),
      sumBlockSizes = globals.getLong(2))
  }

  /** Full pre-processing pipeline of the paper (§5.1): Token Blocking →
    * Block Purging → Block Filtering → statistics.
    */
  def build(ds: ErDataset, filterRatio: Double = BlockFiltering.DefaultRatio): BlockCollection = {
    val assigned = TokenBlocking.assign(ds.profiles)
    val purged = BlockPurging(assigned, ds.nEntities)
    val filtered = BlockFiltering(purged, filterRatio)
    fromAssignments(filtered, ds.dirty, ds.n1, if (ds.dirty) 0L else ds.n2)
  }

  /** The distinct candidate pairs C of a block collection: all (i, j) that
    * co-occur in at least one block — cross-source for Clean-Clean, i < j
    * for Dirty ER. Redundant (repeated) comparisons are collapsed.
    */
  def candidatePairs(bc: BlockCollection): DataFrame = {
    val a = bc.eb.select(col("eid").as("i"), col("src").as("srcA"), col("bid"))
    val b = bc.eb.select(col("eid").as("j"), col("src").as("srcB"), col("bid"))
    val joined =
      if (bc.dirty)
        a.join(b, "bid").filter(col("i") < col("j"))
      else
        a.filter(col("srcA") === 1).join(b.filter(col("srcB") === 2), "bid")
    joined.select("i", "j").distinct()
  }
}
