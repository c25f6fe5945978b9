package repro.baselines

import repro.graph.Graph

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
                          c: Double = 0.6)

  def query(g: Graph, u: Long, p: Params): Map[Long, Double] = {
    val local = g.local

    // Truncated forward expansion: h^{(l)}(u, .) with TopSim's pruning.
    val levels = scala.collection.mutable.ArrayBuffer[Map[Long, Double]](Map(u -> 1.0))
    while (levels.size <= p.T && levels.last.nonEmpty) {
      val expandable = levels.last.filter { case (v, h) =>
        h >= p.eta && local.inDeg(v.toInt) <= p.invH
      }
      levels += local.push(expandable, p.c).toSeq.sortBy { case (v, h) => (-h, v) }.take(p.H).toMap
    }

    // Reverse pass from each retained (lvl, w) meeting candidate down to
    // level lvl; no last-meeting correction — TopSim counts re-meetings.
    val acc = scala.collection.mutable.HashMap.empty[Long, Double]
    for (lvl <- 1 until levels.size; (w, h) <- levels(lvl)) {
      val rev = PushOps.levels(local, w, p.c, lvl, p.eta, transpose = true)
      if (lvl < rev.size)
        rev(lvl).foreach { case (v, hv) => acc.update(v, acc.getOrElse(v, 0.0) + h * hv) }
    }
    acc.toMap - u + (u -> 1.0)
  }
}
