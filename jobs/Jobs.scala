package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.core.{SimPush, SimPushParams}
import repro.eval.{Datasets, ExactSimRank, Harness, Metrics}

/** Shared session builder for the spark-submit entrypoints. */
object Jobs {
  def session(name: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "16"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .getOrCreate()
}

/** Table 4 analog: statistics of the synthetic stand-in datasets next to the
  * paper's originals. `spark-submit --class repro.jobs.DatasetStatsJob`.
  */
object DatasetStatsJob {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("dataset-stats")
    println(f"| ${"name"}%-13s | ${"n"}%7s | ${"m"}%8s | ${"type"}%-10s | ${"paper graph"}%-12s | ${"paper n"}%13s | ${"paper m"}%13s |")
    println("|---------------|---------|----------|------------|--------------|---------------|---------------|")
    Datasets.extended(spark).foreach { d =>
      println(f"| ${d.name}%-13s | ${d.graph.numNodes}%7d | ${d.graph.numEdges}%8d | ${d.kind}%-10s | ${d.paperName}%-12s | ${d.paperN}%13d | ${d.paperM}%13d |")
    }
    spark.stop()
  }
}

/** One single-source SimPush query: prints the top-k results and the query's
  * internals (L against L*, the levels pushed to certify L, #attention nodes,
  * `G_u` edges, time). Args: [dataset] [eps] [k].
  */
object SimPushQueryJob {
  def main(args: Array[String]): Unit = {
    val spark   = Jobs.session("simpush-query")
    val dsName  = args.headOption.getOrElse("pokec-lite")
    val eps     = args.lift(1).map(_.toDouble).getOrElse(0.05)
    val k       = args.lift(2).map(_.toInt).getOrElse(20)
    val ds      = Datasets.extended(spark).find(_.name == dsName)
      .getOrElse(sys.error(s"unknown dataset $dsName"))
    ds.graph.warm()
    val u = Datasets.queryNodes(ds.graph, 1).head
    val p = SimPushParams(eps)
    val r = SimPush.singleSource(ds.graph, u, p)
    println(s"query u=$u eps=$eps: L=${r.L} L*=${p.lStar} levelsPushed=${r.levelsPushed} " +
      s"attention=${r.attentionCount} G_u edges=${r.sourceGraphEdges} time=${r.millis}ms")
    Metrics.topKEst(r.scores, u, k).foreach { v =>
      println(f"  v=$v%8d  s=${r.scores(v)}%.6f")
    }
    spark.stop()
  }
}

/** Figure 4/5 analog for one dataset: the accuracy/time trade-off of every
  * method. Args: [dataset] [numQueries].
  */
object TradeoffJob {
  def main(args: Array[String]): Unit = {
    val spark   = Jobs.session("tradeoff")
    val dsName  = args.headOption.getOrElse("pokec-lite")
    val nq      = args.lift(1).map(_.toInt).getOrElse(3)
    val ds      = Datasets.extended(spark).find(_.name == dsName)
      .getOrElse(sys.error(s"unknown dataset $dsName"))
    ds.graph.warm()
    val truth   = ExactSimRank.allPairs(ds.graph.local, c = 0.6)
    val queries = Datasets.queryNodes(ds.graph, nq)
    println(Harness.header)
    Harness.fullSweep(ds, truth, queries).foreach(r => println(Harness.format(r)))
    spark.stop()
  }
}
