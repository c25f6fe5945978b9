package repro.eval

import org.apache.spark.sql.SparkSession
import repro.graph.{Graph, GraphGen}

/** Benchmark datasets: scaled-down synthetic stand-ins for the paper's
  * Table 4 graphs (the originals — In-2004, DBLP, Pokec, LiveJournal,
  * IT-2004, Twitter, Friendster, UK, ClueWeb — are multi-GB downloads not
  * available offline). Each stand-in preserves the original's *type*
  * (web/social/collaboration, directed/undirected), its average degree, and
  * a heavy-tailed degree profile, at ~1000-50000x smaller node count so that
  * exact ground truth is computable. See DESIGN.md for the substitution
  * table.
  */
object Datasets {

  final case class BenchDataset(
      name: String,
      paperName: String,
      paperN: Long,
      paperM: Long,
      kind: String, // "directed" | "undirected"
      graph: Graph,
  )

  /** The four graphs of the main sweep (one per paper dataset family). */
  def standard(spark: SparkSession): Seq[BenchDataset] = Seq(
    // Web graph, directed, m/n ~ 12 (In-2004: n=1.38M, m=16.5M).
    BenchDataset("in2004-lite", "In-2004", 1382908L, 16539643L, "directed",
      GraphGen.powerLaw(spark, n = 1400, m = 17000, alpha = 2.4, seed = 101)),
    // Collaboration network, undirected, m/n ~ 3.2 (DBLP: n=5.4M, m=17.3M).
    BenchDataset("dblp-lite", "DBLP", 5425963L, 17298032L, "undirected",
      GraphGen.powerLaw(spark, n = 2000, m = 3300, alpha = 1.8, seed = 103,
        undirected = true)),
    // Social network, directed, m/n ~ 19 (Pokec: n=1.6M, m=30.6M).
    BenchDataset("pokec-lite", "Pokec", 1632803L, 30622564L, "directed",
      GraphGen.powerLaw(spark, n = 1600, m = 30000, alpha = 2.0, seed = 105)),
    // Hub-heavy social graph, directed, m/n ~ 35 — the paper's "hard" case
    // (Twitter: n=41.7M, m=1.47B, locally dense).
    BenchDataset("twitter-lite", "Twitter", 41652230L, 1468364884L, "directed",
      GraphGen.powerLaw(spark, n = 2400, m = 84000, alpha = 3.2, seed = 107)),
  )

  /** Extra stand-ins used by the dataset-stats table only. */
  def extended(spark: SparkSession): Seq[BenchDataset] = standard(spark) ++ Seq(
    BenchDataset("lj-lite", "LiveJournal", 4847571L, 68475391L, "directed",
      GraphGen.powerLaw(spark, n = 2400, m = 34000, alpha = 2.2, seed = 109)),
    BenchDataset("uk-lite", "UK", 133633040L, 5475109924L, "directed",
      GraphGen.powerLaw(spark, n = 3000, m = 123000, alpha = 2.6, seed = 111)),
  )

  /** Deterministic query nodes: uniform over nodes with at least one
    * in-neighbor (a node without in-neighbors has an all-zero SimRank row —
    * the paper samples queries uniformly at random). Fails if 100,000 draws
    * do not find `count` of them.
    */
  def queryNodes(g: Graph, count: Int, seed: Long = 77L): Seq[Long] = {
    val rng   = new java.util.SplittableRandom(seed)
    val local = g.local
    val out   = scala.collection.mutable.LinkedHashSet.empty[Long]
    var guard = 0
    while (out.size < count && guard < 100000) {
      val v = rng.nextInt(g.numNodes.toInt)
      if (local.inDeg(v) > 0) out += v.toLong
      guard += 1
    }
    require(out.size == count, s"found ${out.size} of $count query nodes with in-edges in $guard draws")
    out.toSeq
  }
}
