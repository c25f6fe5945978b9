package org.apache.spark

/** Waits until the listener bus has delivered every posted event, so that
  * counters read afterwards are complete. Lives in Spark's package because
  * the bus is `private[spark]`.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
