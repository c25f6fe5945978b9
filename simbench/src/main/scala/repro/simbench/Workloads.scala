package repro.simbench

import org.apache.spark.sql.SparkSession
import repro.graph.{Graph, GraphGen}

/** A named benchmark workload: one stand-in graph, one error threshold, and
  * whether the graph churns before every query.
  *
  * The generator calls mirror the stand-ins of `repro.eval.Datasets.standard`
  * (same parameters and seeds) but build only the one graph a workload needs;
  * each result records the graph's n and m, so a drift between the two shows
  * up in a diff of results.
  */
final case class Workload(name: String, dataset: String, eps: Double, churn: Boolean, why: String)(
    val build: SparkSession => Graph)

object Workloads {

  private def twitterLite(s: SparkSession) = GraphGen.powerLaw(s, n = 2400, m = 84000, alpha = 3.2, seed = 107)
  private def dblpLite(s: SparkSession) = GraphGen.powerLaw(s, n = 2000, m = 3300, alpha = 1.8, seed = 103, undirected = true)
  private def pokecLite(s: SparkSession) = GraphGen.powerLaw(s, n = 1600, m = 30000, alpha = 2.0, seed = 105)

  val all: Seq[Workload] = Seq(
    Workload("twitter-fine", "twitter-lite", 0.02, churn = false,
      "hub-heavy graph at the paper's default eps: every layer is loaded, the walk cap binds")(twitterLite),
    Workload("dblp-coarse", "dblp-lite", 0.1, churn = false,
      "sparse undirected graph at coarse eps: per-level push overhead dominates, last-meeting is bypassed")(dblpLite),
    Workload("pokec-churn", "pokec-lite", 0.05, churn = true,
      "1% edge churn before every query: each query pays graph build, caches and CSR on a cold graph")(pokecLite),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
