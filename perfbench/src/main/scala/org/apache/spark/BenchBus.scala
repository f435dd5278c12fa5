package org.apache.spark

/** Blocks until Spark's listener bus has delivered every queued event, so a
  * SparkListener read afterwards has seen all jobs and tasks that ran before
  * the call. It sits in this package because the bus is private to Spark.
  */
object BenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)
}
