package repro.baselines

import repro.graph.LocalGraph

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

  /** The reverse-list index of SLING (every node a seed) and PRSim (its hubs).
    *
    * @param lists  reverse lists of the seeds: `lists(w)(l)` maps `v` to `h^{(l)}(v, w) >= theta`
    * @param eta    `eta(w)` for every node
    * @param rows   index cardinality — the memory-consumption proxy: entries of `lists` at levels `>= 1`
    */
  final case class Index(lists: Map[Long, PushOps.Levels], eta: Map[Long, Double],
                         theta: Double, maxLevel: Int, rows: Long, buildMillis: Long)

  def buildIndex(lg: LocalGraph, theta: Double, c: Double, etaSamples: Int = 300,
                 seed: Long = 7L): Index =
    index(lg, 0L until lg.n, theta, c, etaSamples, seed)

  /** The index of `seeds`' reverse lists to the deepest level `l` with
    * `sqrt(c)^l >= theta`, and of η estimated with `etaSamples` walk pairs
    * per node from `seed`.
    */
  private[baselines] def index(lg: LocalGraph, seeds: Seq[Long], theta: Double, c: Double,
                               etaSamples: Int, seed: Long): Index = {
    require(theta > 0 && theta < 1, s"theta must be in (0, 1), got $theta")
    require(c > 0 && c < 1, s"c must be in (0, 1), got $c")
    require(etaSamples > 0, s"etaSamples must be > 0, got $etaSamples")
    val t0 = System.nanoTime()
    val maxLevel = math.max(1,
      math.floor(math.log(1.0 / theta) / math.log(1.0 / math.sqrt(c))).toInt)
    val lists = PushOps.reverseLists(lg, seeds, c, maxLevel, theta)
    val eta   = Eta.estimate(lg, etaSamples, c, maxLevel + 10, seed)
    val rows  = lists.valuesIterator.map(_.iterator.drop(1).map(_.size.toLong).sum).sum
    Index(lists, eta, theta, maxLevel, rows, (System.nanoTime() - t0) / 1000000)
  }

  /** Single-source query: forward push from `u` with the same truncation
    * threshold, then look up the reverse lists of the pruned support
    * `h^{(l)}(u, w)`.
    */
  def query(lg: LocalGraph, idx: Index, u: Long, c: Double): Map[Long, Double] = {
    val hU = PushOps.levels(lg, u, c, idx.maxLevel, idx.theta)
    PushOps.decomposition(u, hU, idx.eta, idx.lists)
  }
}
