package repro.baselines

import repro.graph.LocalGraph

/** Monte-Carlo estimation of the last-meeting probability
  * `eta(w) = Pr[two independent \sqrt{c}-walks from w never meet]`
  * used by SLING and PRSim (Equation 3). The paper's SLING precomputes these
  * during indexing by sampling walk pairs; we do the same on the driver CSR,
  * node by node, walk pair `i` of node `v` drawn from the stream seeded by
  * `mix(seed, v)`.
  */
object Eta {

  /** @return `eta(node)` for every node */
  def estimate(lg: LocalGraph, samplesPerNode: Int, c: Double, maxSteps: Int,
               seed: Long): Map[Long, Double] = {
    require(samplesPerNode > 0, s"samplesPerNode must be > 0, got $samplesPerNode")
    require(c > 0 && c < 1, s"c must be in (0, 1), got $c")
    require(maxSteps > 0, s"maxSteps must be > 0, got $maxSteps")
    (0 until lg.n).iterator.map { v =>
      val meet = MonteCarloSim.meetCount(lg, v, v, samplesPerNode, c, maxSteps, RandomWalks.mix(seed, v))
      v.toLong -> (1.0 - meet.toDouble / samplesPerNode)
    }.toMap
  }
}
