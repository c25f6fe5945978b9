package repro.simbench

import scala.collection.mutable

import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.ui.{SparkListenerSQLExecutionEnd, SparkListenerSQLExecutionStart}

/** Spark job, task and shuffle counts per benchmark layer, registered on the
  * SparkContext from outside the program.
  *
  * The benchmark tags each call into a layer with the local properties
  * [[LayerKey]] and [[QueryKey]]; Spark copies them into every job that call
  * submits. Walks run inside `SourcePush.run` and cannot be tagged from
  * outside, so a job is re-attributed to [[WalksLayer]] when its SQL
  * execution's plan holds the walk simulation's `MapPartitions` (the
  * `flatMap` in `RandomWalks.sqrtCWalks`; no push plan contains one). The same
  * SQL execution events give the walk stage its start and end.
  *
  * Callbacks run on the listener-bus thread; read only after
  * [[org.apache.spark.ListenerBusDrain]].
  */
final class SparkCounters extends SparkListener {
  import SparkCounters._

  private val jobs       = mutable.LinkedHashMap.empty[Int, Job]
  private val stageToJob = mutable.HashMap.empty[Int, Int]
  private val execs      = mutable.LinkedHashMap.empty[Long, Exec]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val p      = e.properties
    def prop(k: String) = Option(p).flatMap(x => Option(x.getProperty(k)))
    val execId = prop("spark.sql.execution.id").map(_.toLong).getOrElse(-1L)
    val tagged = prop(LayerKey).getOrElse("untagged")
    val layer  = if (execs.get(execId).exists(_.isWalk)) WalksLayer else tagged
    jobs(e.jobId) = Job(layer, prop(QueryKey).getOrElse(""), execId)
    e.stageIds.foreach(s => stageToJob(s) = e.jobId)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageToJob.get(e.stageId).flatMap(jobs.get).foreach { j =>
      j.tasks += 1
      if (e.taskMetrics != null) j.shuffleBytes += e.taskMetrics.shuffleWriteMetrics.bytesWritten
    }
  }

  override def onOtherEvent(e: SparkListenerEvent): Unit = synchronized {
    e match {
      case s: SparkListenerSQLExecutionStart =>
        execs(s.executionId) = Exec(s.physicalPlanDescription.contains("MapPartitions"), s.time)
      case s: SparkListenerSQLExecutionEnd =>
        execs.get(s.executionId).foreach(_.endMs = s.time)
      case _ =>
    }
  }

  /** Totals per layer for one query id. */
  def totals(qid: String): Map[String, Totals] = synchronized {
    jobs.values.filter(_.qid == qid).groupBy(_.layer).map { case (l, js) =>
      l -> Totals(js.size, js.iterator.map(_.tasks).sum, js.iterator.map(_.shuffleBytes).sum)
    }
  }

  /** Wall-clock `(start, end)` in epoch ms of the walk executions run for `qid`. */
  def walkIntervalsMs(qid: String): Seq[(Long, Long)] = synchronized {
    val ids = jobs.values.filter(j => j.qid == qid && j.layer == WalksLayer).map(_.execId).toSet
    ids.toSeq.sorted.flatMap(execs.get).filter(_.endMs >= 0).map(x => (x.startMs, x.endMs))
  }
}

object SparkCounters {
  val LayerKey   = "simbench.layer"
  val QueryKey   = "simbench.qid"
  val WalksLayer = "walks"

  final case class Totals(jobs: Int, tasks: Int, shuffleBytes: Long)

  private final case class Job(layer: String, qid: String, execId: Long) {
    var tasks = 0
    var shuffleBytes = 0L
  }

  private final case class Exec(isWalk: Boolean, startMs: Long) {
    var endMs = -1L
  }
}
