package repro.baselines

import repro.graph.Graph

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

  /** @param hubLists reverse lists of the hubs, as in [[Sling.Index]] */
  final case class Index(hubLists: Map[Long, PushOps.Levels], eta: Map[Long, Double],
                         theta: Double, maxLevel: Int, rows: Long, buildMillis: Long) {
    def hubs: Set[Long] = hubLists.keySet
  }

  /** @param j0 number of hub nodes (paper default sqrt(n)) */
  def buildIndex(g: Graph, theta: Double, c: Double, j0: Int,
                 etaSamples: Int = 300, seed: Long = 13L): Index = {
    val t0 = System.nanoTime()
    val maxLevel = math.max(1,
      math.floor(math.log(1.0 / theta) / math.log(1.0 / math.sqrt(c))).toInt)
    val lg   = g.local
    val hubs = (0 until lg.n).filter(lg.inDeg(_) > 0).sortBy(v => (-lg.inDeg(v), v))
      .take(j0).map(_.toLong)
    val hubLists = PushOps.reverseLists(g, hubs, c, maxLevel, theta)
    val eta = Eta.estimate(g, etaSamples, c, maxLevel + 10, seed)
    Index(hubLists, eta, theta, maxLevel, PushOps.rows(hubLists), (System.nanoTime() - t0) / 1000000)
  }

  def query(g: Graph, idx: Index, u: Long, c: Double): Map[Long, Double] = {
    val lg = g.local
    val hU = PushOps.levels(lg, u, c, idx.maxLevel, idx.theta)
    // Non-hub meeting nodes: compute reverse lists online (the part PRSim
    // pays at query time).
    val online = scala.collection.mutable.HashMap.empty[Long, PushOps.Levels]
    PushOps.decomposition(u, hU, idx.eta, w => idx.hubLists.getOrElse(w,
      online.getOrElseUpdate(w, PushOps.levels(lg, w, c, idx.maxLevel, idx.theta, transpose = true))))
  }
}
