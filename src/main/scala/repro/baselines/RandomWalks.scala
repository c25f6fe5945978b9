package repro.baselines

import java.util.SplittableRandom

import org.apache.spark.sql.DataFrame
import repro.graph.Graph

/** Batched \sqrt{c}-walk simulation for the walk-based competitors
  * (ProbeSim's sampled walks; `mix` seeds the walks of Eta, READS, TSF and
  * Monte-Carlo SimRank).
  *
  * The graph's CSR form is broadcast to executors and each partition
  * simulates its share of walks independently — one Spark job regardless of
  * walk count.
  */
object RandomWalks {

  /** SplitMix64 finalizer — decorrelates per-walk seeds. */
  def mix(seed: Long, id: Long): Long = {
    var z = seed + id * 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** Simulate `numWalks` \sqrt{c}-walks from `start`.
    * @return DataFrame `(walkId Long, step Int, node Long)` including step 0.
    */
  def sqrtCWalks(g: Graph, start: Long, numWalks: Long, c: Double,
                 maxSteps: Int, seed: Long): DataFrame = {
    val spark = g.spark
    import spark.implicits._
    val bc = g.localBroadcast
    val s  = start.toInt
    spark.range(numWalks).as[Long].flatMap { id =>
      val rng  = new SplittableRandom(mix(seed, id))
      val walk = bc.value.sqrtCWalk(s, c, maxSteps, rng)
      walk.iterator.zipWithIndex.map { case (node, step) => (id, step, node.toLong) }.toSeq
    }.toDF("walkId", "step", "node")
  }
}
