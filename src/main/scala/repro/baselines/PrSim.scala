package repro.baselines

import repro.graph.LocalGraph

/** PRSim [33] (Section 2.2): the index-based state of the art. PRSim keeps
  * SLING's decomposition `s(u,v) = sum h(u,w) eta(w) h(v,w)` but only
  * *pre-computes* the reverse lists of `j0` hub nodes (chosen by
  * centrality; we use in-degree as the hub score, a standard proxy for the
  * PageRank-based choice). For non-hub meeting nodes the reverse
  * probabilities are computed online at query time.
  *
  * This reproduces PRSim's structural trade-off: index is O(j0/theta)
  * instead of O(n/theta), query time sits between SLING (all pre-computed)
  * and ProbeSim (nothing pre-computed). The original's sampling-based RPPR
  * estimators are replaced by deterministic truncated pushes with the same
  * threshold — see DESIGN.md for the substitution note.
  */
object PrSim {

  /** [[Sling.Index]] over the hubs: `lists.keySet` are the `j0` nodes of
    * highest in-degree (ties by id; never a node without in-edges).
    *
    * @param j0 number of hub nodes (paper default sqrt(n))
    */
  def buildIndex(lg: LocalGraph, theta: Double, c: Double, j0: Int,
                 etaSamples: Int = 300, seed: Long = 13L): Sling.Index = {
    require(j0 > 0, s"j0 must be > 0, got $j0")
    val hubs = (0 until lg.n).filter(lg.inDeg(_) > 0).sortBy(v => (-lg.inDeg(v), v)).take(j0)
    Sling.index(lg, hubs.map(_.toLong), theta, c, etaSamples, seed)
  }

  def query(lg: LocalGraph, idx: Sling.Index, u: Long, c: Double): Map[Long, Double] = {
    val hU = PushOps.levels(lg, u, c, idx.maxLevel, idx.theta)
    // Non-hub meeting nodes: compute reverse lists online (the part PRSim
    // pays at query time).
    val online = scala.collection.mutable.HashMap.empty[Long, PushOps.Levels]
    PushOps.decomposition(u, hU, idx.eta, w => idx.lists.getOrElse(w,
      online.getOrElseUpdate(w, PushOps.levels(lg, w, c, idx.maxLevel, idx.theta, transpose = true))))
  }
}
