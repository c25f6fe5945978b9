package repro.baselines

import repro.graph.{LocalGraph, NodeScores}

/** TopSim [15] (Section 2.2): index-free. Expands a truncated random-walk
  * tree of depth `T` from the query node, keeping at most `H` nodes per
  * level, skipping expansions through very-high-degree nodes (in-degree
  * above `1/h`), and trimming probabilities below `eta`. Similarities are
  * then accumulated through a reverse pass from the retained meeting nodes.
  *
  * As the paper notes (quoting [21, 33]), TopSim's truncation breaks its
  * quality guarantee; our variant inherits exactly those limitations (no
  * first/last-meeting correction, hard truncation), which is what makes it
  * land where it does in the accuracy/time trade-off.
  */
object TopSim {

  /** @param T    walk depth
    * @param invH degree threshold `1/h`: nodes with larger in-degree are not expanded
    * @param H    max frontier width per level
    * @param eta  trim threshold on walk probability
    */
  final case class Params(T: Int, invH: Int, H: Int = 100, eta: Double = 0.001,
                          c: Double = 0.6) {
    require(T > 0, s"T must be > 0, got $T")
    require(invH > 0, s"invH must be > 0, got $invH")
    require(H > 0, s"H must be > 0, got $H")
    require(c > 0 && c < 1, s"c must be in (0, 1), got $c")
  }

  def query(lg: LocalGraph, u: Long, p: Params): Map[Long, Double] = {
    // Truncated forward expansion: h^{(l)}(u, .) with TopSim's pruning.
    val levels = scala.collection.mutable.ArrayBuffer(NodeScores.single(u.toInt, 1.0))
    while (levels.size <= p.T && levels.last.nonEmpty) {
      val next = lg.push(levels.last.keep((v, h) => h >= p.eta && lg.inDeg(v) <= p.invH), p.c)
      // the H largest, ties to the smaller id
      val top = new java.util.BitSet(lg.n)
      next.ids.indices.sortBy(i => (-next.vals(i), next.ids(i))).take(p.H).foreach(i => top.set(next.ids(i)))
      levels += next.keep((v, _) => top.get(v))
    }

    // Reverse pass from each retained (lvl, w) meeting candidate down to
    // level lvl; no last-meeting correction — TopSim counts re-meetings.
    val acc = new NodeScores.Accumulator(lg.n)
    for (lvl <- 1 until levels.size; (w, h) <- levels(lvl).ids.zip(levels(lvl).vals)) {
      val rev = PushOps.levels(lg, w, p.c, lvl, p.eta, transpose = true)
      if (lvl < rev.size) {
        val r = rev(lvl)
        r.ids.indices.foreach(i => acc.add(r.ids(i), h * r.vals(i)))
      }
    }
    acc.result() - u + (u -> 1.0)
  }
}
