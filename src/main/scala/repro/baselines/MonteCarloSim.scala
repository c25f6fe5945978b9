package repro.baselines

import java.util.SplittableRandom

import repro.graph.LocalGraph

/** Monte-Carlo SimRank estimation [5, 6]: `s(u, v)` is the probability that
  * two independent \sqrt{c}-walks from `u` and `v` meet (same node, same
  * step). The paper uses this — at very high sample counts — to produce
  * ground truth; we keep it as an independent cross-check of the exact
  * power-method oracle and for pool-restricted ground truth.
  */
object MonteCarloSim {

  /** Estimate `s(u, v)` for each `v` in `vs` with `samples` walk pairs each,
    * drawn on the driver CSR; the pairs of the `i`-th `v` come from the
    * stream seeded by `mix(seed, i)`.
    */
  def pairMeetProb(lg: LocalGraph, u: Long, vs: Seq[Long], samples: Int, c: Double,
                   maxSteps: Int = 40, seed: Long = 53L): Map[Long, Double] = {
    require(samples > 0, s"samples must be > 0, got $samples")
    require(c > 0 && c < 1, s"c must be in (0, 1), got $c")
    require(maxSteps > 0, s"maxSteps must be > 0, got $maxSteps")
    vs.iterator.zipWithIndex.map { case (v, i) =>
      v -> meetCount(lg, u.toInt, v.toInt, samples, c, maxSteps, RandomWalks.mix(seed, i)).toDouble / samples
    }.toMap
  }

  /** How many of `samples` walk pairs from `u` and `v`, drawn in turn from
    * one `SplittableRandom(seed)`, meet; [[Eta]] calls it with `u == v`.
    */
  private[baselines] def meetCount(lg: LocalGraph, u: Int, v: Int, samples: Int, c: Double,
                                   maxSteps: Int, seed: Long): Int = {
    val rng = new SplittableRandom(seed)
    (0 until samples).count(_ => lg.pairWalksMeet(u, v, c, maxSteps, rng))
  }
}
