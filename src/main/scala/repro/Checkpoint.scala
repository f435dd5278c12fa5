package repro

import org.apache.spark.sql.DataFrame

/** Scoped materialisation of an intermediate table.
  *
  * `localCheckpoint` is the project's way to materialise a table that several
  * queries read: it computes the table once and truncates its lineage, so
  * the plans built on top of it stay small. `Dataset.unpersist()` does not
  * free a local checkpoint, though — its blocks belong to the internal RDD
  * that the checkpoint persisted — so that RDD is unpersisted instead.
  */
object Checkpoint {

  /** Materialises `df` with an eager `localCheckpoint`, runs `body` on the
    * materialised table and then frees it, also when `body` throws. `body`
    * must not return a lazy result that still reads the table.
    */
  def using[T](df: DataFrame)(body: DataFrame => T): T = {
    val sc = df.sparkSession.sparkContext
    val before = sc.getPersistentRDDs.keySet
    val table = df.localCheckpoint()
    val pinned = sc.getPersistentRDDs.collect { case (id, rdd) if !before(id) => rdd }
    try body(table)
    finally pinned.foreach(_.unpersist(blocking = false))
  }
}
