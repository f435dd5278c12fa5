package perfbench

import org.apache.spark.SparkContext
import scala.collection.mutable.ArrayBuffer

/** A closed span: one call into a layer of the program.
  *
  * @param trace  id of the root span of the composition it belongs to
  * @param parent id of the enclosing span, -1 for a root
  * @param selfS  wall time minus the wall time of its direct children
  * @param counts Spark work of the jobs submitted inside this span but
  *               outside its children
  */
final case class Span(id: Int, trace: Int, parent: Int, name: String,
                      wallS: Double, selfS: Double, counts: Counts) {
  def json: String =
    s"""{"id":$id,"trace":$trace,"parent":$parent,"name":"$name","wall_s":$wallS,""" +
      s""""self_s":$selfS,"jobs":${counts.jobs},"shuffle_bytes":${counts.shuffleBytes},""" +
      s""""spill_bytes":${counts.spillBytes},"run_time_ms":${counts.runTimeMs}}"""
}

/** Records spans around calls into the program's layers, from outside.
  *
  * Each span runs its body under a job group of its own, so [[Probe]] can
  * attribute jobs, shuffle and spill to the innermost open span. Spans are
  * kept in memory; [[spans]] returns them closed.
  */
final class Tracer(sc: SparkContext, probe: Probe) {
  private final case class Open(id: Int, trace: Int, name: String)
  private final case class Raw(id: Int, trace: Int, parent: Int, name: String, startNs: Long, endNs: Long)

  private var nextId = 0
  private var stack = List.empty[Open]
  private val closed = ArrayBuffer.empty[Raw]

  private def groupOf(id: Int): String = s"perfbench-span-$id"

  def span[T](name: String)(body: => T): T = {
    val id = nextId
    nextId += 1
    val parent = stack.headOption
    val open = Open(id, parent.fold(id)(_.trace), name)
    stack = open :: stack
    sc.setJobGroup(groupOf(id), name, interruptOnCancel = false)
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      stack = stack.tail
      parent match {
        case Some(p) => sc.setJobGroup(groupOf(p.id), p.name, interruptOnCancel = false)
        case None    => sc.clearJobGroup()
      }
      closed += Raw(id, open.trace, parent.fold(-1)(_.id), name, t0, t1)
    }
  }

  /** Runs `body` in a root span and returns its value with the spans of
    * that composition.
    */
  def trace[T](name: String)(body: => T): (T, Seq[Span]) = {
    require(stack.isEmpty, "trace opens a root span")
    val id = nextId
    val out = span(name)(body)
    (out, spans.filter(_.trace == id))
  }

  /** Every closed span so far, with self time and Spark counts. */
  def spans: Seq[Span] = {
    val childNs = closed.groupMapReduce(_.parent)(r => r.endNs - r.startNs)(_ + _)
    closed.toSeq.sortBy(_.id).map { r =>
      val wall = r.endNs - r.startNs
      Span(r.id, r.trace, r.parent, r.name, wall / 1e9,
        (wall - childNs.getOrElse(r.id, 0L)) / 1e9, probe.group(groupOf(r.id)))
    }
  }
}
