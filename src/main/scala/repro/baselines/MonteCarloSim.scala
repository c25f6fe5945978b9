package repro.baselines

import java.util.SplittableRandom

import repro.graph.Graph

/** Monte-Carlo SimRank estimation [5, 6]: `s(u, v)` is the probability that
  * two independent \sqrt{c}-walks from `u` and `v` meet (same node, same
  * step). The paper uses this — at very high sample counts — to produce
  * ground truth; we keep it as an independent cross-check of the exact
  * power-method oracle and for pool-restricted ground truth.
  */
object MonteCarloSim {

  /** Estimate `s(u, v)` for each `v` in `vs` with `samples` walk pairs each,
    * batched as one distributed job.
    */
  def pairMeetProb(g: Graph, u: Long, vs: Seq[Long], samples: Int, c: Double,
                   maxSteps: Int = 40, seed: Long = 53L): Map[Long, Double] = {
    val spark = g.spark
    import spark.implicits._
    val bc  = g.localBroadcast
    val vsB = spark.sparkContext.broadcast(vs.toArray)
    spark.range(vs.size.toLong).as[Long].map { i =>
      val v   = vsB.value(i.toInt)
      val rng = new SplittableRandom(RandomWalks.mix(seed, i))
      var hit = 0
      var s = 0
      while (s < samples) {
        if (bc.value.pairWalksMeet(u.toInt, v.toInt, c, maxSteps, rng)) hit += 1
        s += 1
      }
      (v, hit.toDouble / samples)
    }.collect().toMap
  }
}
