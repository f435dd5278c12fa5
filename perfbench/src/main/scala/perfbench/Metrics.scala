package perfbench

/** Names and units of every metric the benchmark prints. BENCHMARK.json
  * declares the same lists; HarnessSpec checks that the two agree.
  */
object Metrics {

  /** Reported by untraced runs (`--trace 0`). */
  val endToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s",
    "setup_heap_mb" -> "MB",
    "e2e_s" -> "s",
    "rt_s" -> "s",
    "shuffle_b_per_pair" -> "B/pair",
    "spark_jobs" -> "count",
    "recall" -> "ratio",
  )

  private def layer(prefix: String, metrics: (String, String)*): Seq[(String, String)] =
    metrics.map { case (m, u) => s"$prefix.$m" -> u }

  private val wall = "wall_s" -> "s"
  private val jobs = "jobs" -> "count"
  private val shuffle = "shuffle_mb" -> "MB"
  private val spill = "spill_mb" -> "MB"
  private val busy = "busy_share" -> "ratio"
  private val rows = "rows_out" -> "count"

  /** Reported by traced runs (`--trace 1`), named after the program's modules. */
  val perLayer: Seq[(String, String)] =
    layer("TokenBlocking", wall, rows) ++
    layer("BlockPurging", wall, rows) ++
    layer("BlockFiltering", wall, rows) ++
    layer("BlockStats", wall, jobs, shuffle, "blocks" -> "count", "comparisons" -> "count") ++
    layer("Features", wall, jobs, shuffle, spill, busy, rows, "distinct_ratio" -> "ratio") ++
    layer("Features.labeled", wall, shuffle) ++
    layer("Trainer.sample", wall, jobs, shuffle, "fill_ratio" -> "ratio") ++
    layer("LogisticRegression.train", wall) ++
    layer("Trainer.score", wall) ++
    layer("Pruning", wall, jobs, shuffle, spill, busy,
      "valid_pairs" -> "count", "retained_pairs" -> "count", "keep_ratio" -> "ratio") ++
    layer("Evaluation", wall, jobs, "f1" -> "ratio") ++
    layer("Pipeline", "rework_ratio" -> "ratio")

  val units: Map[String, String] = (endToEnd ++ perLayer).toMap
}
