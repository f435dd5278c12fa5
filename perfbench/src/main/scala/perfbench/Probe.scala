package perfbench

import org.apache.spark.{BenchBus, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import scala.collection.mutable

/** Spark work counted by [[Probe]]: jobs started, shuffle bytes written,
  * bytes spilled to disk and the summed executor run time of finished tasks.
  */
final case class Counts(jobs: Long, shuffleBytes: Long, spillBytes: Long, runTimeMs: Long) {
  def +(o: Counts): Counts =
    Counts(jobs + o.jobs, shuffleBytes + o.shuffleBytes, spillBytes + o.spillBytes, runTimeMs + o.runTimeMs)
  def -(o: Counts): Counts =
    Counts(jobs - o.jobs, shuffleBytes - o.shuffleBytes, spillBytes - o.spillBytes, runTimeMs - o.runTimeMs)
  def shuffleMb: Double = shuffleBytes / 1e6
  def spillMb: Double = spillBytes / 1e6
}

object Counts {
  val zero: Counts = Counts(0, 0, 0, 0)
}

/** A SparkListener that sums [[Counts]] per job group (the empty group holds
  * jobs run outside any group). Tasks are attributed through their stage to
  * the group of the job that submitted it.
  */
final class Probe(sc: SparkContext) extends SparkListener {
  private val stageGroup = mutable.HashMap.empty[Int, String]
  private val byGroup = mutable.HashMap.empty[String, Counts]

  private def add(group: String, c: Counts): Unit =
    byGroup(group) = byGroup.getOrElse(group, Counts.zero) + c

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val group = Option(e.properties)
      .flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
      .getOrElse("")
    e.stageIds.foreach(stageGroup(_) = group)
    add(group, Counts(1, 0, 0, 0))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    if (m != null)
      add(stageGroup.getOrElse(e.stageId, ""),
        Counts(0, m.shuffleWriteMetrics.bytesWritten, m.diskBytesSpilled, m.executorRunTime))
  }

  /** Counts of one job group, after every pending event is delivered. */
  def group(name: String): Counts = { BenchBus.drain(sc); synchronized(byGroup.getOrElse(name, Counts.zero)) }

  /** Counts over all groups, after every pending event is delivered. */
  def total: Counts = { BenchBus.drain(sc); synchronized(byGroup.values.foldLeft(Counts.zero)(_ + _)) }
}

object Probe {
  def install(sc: SparkContext): Probe = {
    val p = new Probe(sc)
    sc.addSparkListener(p)
    p
  }
}
