package repro.baselines

import java.util.SplittableRandom

import repro.graph.Graph

/** Monte-Carlo estimation of the last-meeting probability
  * `eta(w) = Pr[two independent \sqrt{c}-walks from w never meet]`
  * used by SLING and PRSim (Equation 3). The paper's SLING precomputes these
  * during indexing by sampling walk pairs; we do the same, batched as one
  * distributed job over a broadcast CSR graph.
  */
object Eta {

  /** @return `eta(node)` for every node */
  def estimate(g: Graph, samplesPerNode: Int, c: Double, maxSteps: Int,
               seed: Long): Map[Long, Double] = {
    val spark = g.spark
    import spark.implicits._
    val bc = g.localBroadcast
    val n  = g.numNodes
    spark.range(n).as[Long].map { v =>
      val rng  = new SplittableRandom(RandomWalks.mix(seed, v))
      var meet = 0
      var i = 0
      while (i < samplesPerNode) {
        if (bc.value.pairWalksMeet(v.toInt, v.toInt, c, maxSteps, rng)) meet += 1
        i += 1
      }
      (v, 1.0 - meet.toDouble / samplesPerNode)
    }.collect().toMap
  }
}
