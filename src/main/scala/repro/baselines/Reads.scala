package repro.baselines

import java.util.SplittableRandom

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.Graph

/** READS [12] (Section 2.2): index-based. Pre-computes `r` \sqrt{c}-walks of
  * depth at most `t` from *every* node; at query time, walk `i` of `u` is
  * paired with walk `i` of every other node `v`, and `s(u,v)` is estimated by
  * the fraction of pairs that meet (same node, same step) — the indicator
  * form of `s(u,v) = Pr[two \sqrt{c}-walks meet]`.
  *
  * The original compresses the stored walks into trees; we store them flat
  * (same estimator, same index cardinality up to constants), which is the
  * "static READS" variant the paper evaluates.
  */
object Reads {

  final case class Index(walks: DataFrame, r: Int, t: Int, rows: Long, buildMillis: Long)

  def buildIndex(g: Graph, r: Int, t: Int, c: Double, seed: Long = 31L): Index = {
    val spark = g.spark
    import spark.implicits._
    val t0 = System.nanoTime()
    val bc = g.localBroadcast
    val n  = g.numNodes
    val walks = spark.range(n * r).as[Long].flatMap { id =>
      val v    = (id / r).toInt
      val widx = (id % r).toInt
      val rng  = new SplittableRandom(RandomWalks.mix(seed, id))
      val walk = bc.value.sqrtCWalk(v, c, t, rng)
      // step 0 is the start node itself — kept, it never matches a distinct query
      walk.iterator.zipWithIndex.map { case (node, step) => (v.toLong, widx, step, node.toLong) }.toSeq
    }.toDF("node", "widx", "step", "pos")
      .localCheckpoint(true)
    Index(walks, r, t, walks.count(), (System.nanoTime() - t0) / 1000000)
  }

  def query(g: Graph, idx: Index, u: Long): Map[Long, Double] = {
    val uw = idx.walks.where(col("node") === u && col("step") >= 1)
      .select(col("widx").as("uwidx"), col("step").as("ustep"), col("pos").as("upos"))
    val scores = idx.walks.where(col("node") =!= u && col("step") >= 1)
      .join(broadcast(uw),
        col("widx") === col("uwidx") && col("step") === col("ustep") && col("pos") === col("upos"))
      .select("node", "widx").distinct() // a pair of walks meets at most once
      .groupBy("node").agg(count(lit(1)).as("meets"))
      .collect()
      .map(r => r.getLong(0) -> r.getLong(1).toDouble / idx.r)
      .toMap
    scores - u + (u -> 1.0)
  }
}
