package repro.baselines

import repro.graph.Graph

/** SLING [31] (Section 2.2): index-based single-source SimRank via
  * `s(u,v) = sum_l sum_w h^{(l)}(u,w) * eta(w) * h^{(l)}(v,w)` (Equation 3).
  *
  * The index materializes, for every node `w`, all `(l, v)` with
  * `h^{(l)}(v, w) >= theta` (reverse lists), plus the Monte-Carlo estimated
  * last-meeting probabilities `eta(w)` — this is why SLING's index is large
  * and why the whole thing must be rebuilt on any graph update, the paper's
  * core argument against it for online scenarios.
  */
object Sling {

  /** @param lists  reverse lists: `lists(w)(l)` maps `v` to `h^{(l)}(v, w) >= theta`
    * @param rows   index cardinality — the memory-consumption proxy
    */
  final case class Index(lists: Map[Long, PushOps.Levels], eta: Map[Long, Double],
                         theta: Double, maxLevel: Int, rows: Long, buildMillis: Long)

  def buildIndex(g: Graph, theta: Double, c: Double, etaSamples: Int = 300,
                 seed: Long = 7L): Index = {
    val t0 = System.nanoTime()
    val maxLevel = math.max(1,
      math.floor(math.log(1.0 / theta) / math.log(1.0 / math.sqrt(c))).toInt)
    val lists = PushOps.reverseLists(g, 0L until g.numNodes, c, maxLevel, theta)
    val eta = Eta.estimate(g, etaSamples, c, maxLevel + 10, seed)
    Index(lists, eta, theta, maxLevel, PushOps.rows(lists), (System.nanoTime() - t0) / 1000000)
  }

  /** Single-source query: forward push from `u` with the same truncation
    * threshold, then look up the reverse lists of the pruned support
    * `h^{(l)}(u, w)`.
    */
  def query(g: Graph, idx: Index, u: Long, c: Double): Map[Long, Double] = {
    val hU = PushOps.levels(g.local, u, c, idx.maxLevel, idx.theta)
    PushOps.decomposition(u, hU, idx.eta, idx.lists)
  }
}
