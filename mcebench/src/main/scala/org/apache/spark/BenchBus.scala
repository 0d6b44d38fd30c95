package org.apache.spark

/** Waits until every event posted so far has reached the registered
  * listeners, so counters read after an op include all of its jobs.
  * Lives in Spark's package because the listener bus is package-private.
  */
object BenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
