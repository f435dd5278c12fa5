package perfbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import repro.SparkSpec

/** Command-line entry point:
  * `--workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]`.
  *
  * Prints one JSON result line last on standard output; with `--trace 1` it
  * also writes the spans, one JSON object a line, to
  * `<out>/spans-<workload>-<seed>.jsonl`. `--seconds` is part of the
  * command line but not used: a run times a fixed number of pipeline ops.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean, out: String)

  def parse(args: Array[String]): Args = {
    require(args.length % 2 == 0, s"expected --flag value pairs, got ${args.mkString(" ")}")
    val m = args.grouped(2).map { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val known = Set("workload", "seed", "seconds", "trace", "out")
    require(m.keySet.subsetOf(known), s"unknown flags ${(m.keySet -- known).mkString(", ")}")
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"--$k is required"))
    val trace = need("trace")
    require(trace == "0" || trace == "1", s"--trace must be 0 or 1, got $trace")
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble, trace == "1",
      m.getOrElse("out", "."))
  }

  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "null"
    else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString
    else v.toString

  private def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  def json(r: Result): String = {
    val order = (Metrics.endToEnd ++ Metrics.perLayer).map(_._1).zipWithIndex.toMap
    val metrics = r.metrics.sortBy { case (n, _) => order(n) }.map { case (n, v) =>
      s"${str(n)}: {\"value\": ${num(v)}, \"unit\": ${str(Metrics.units(n))}}"
    }.mkString(", ")
    s"""{"correct": ${r.correct}, "attempted": ${r.attempted}, "failed": ${r.failed}, "metrics": {$metrics}}"""
  }

  def main(argv: Array[String]): Unit = {
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val a = parse(argv)
    val w = Bench.workload(a.workload)
    val spark = SparkSpec.shared
    val probe = Probe.install(spark.sparkContext)
    val r = try Bench.run(spark, probe, w, a.seed, a.trace, jvmStartMs)
            finally spark.stop()
    if (a.trace) {
      new File(a.out).mkdirs()
      val pw = new PrintWriter(new File(a.out, s"spans-${w.name}-${a.seed}.jsonl"))
      try r.spans.foreach(s => pw.println(s.json)) finally pw.close()
    }
    if (r.notes.nonEmpty) Console.err.println(s"[perfbench] ${r.notes}")
    println(json(r))
  }
}
