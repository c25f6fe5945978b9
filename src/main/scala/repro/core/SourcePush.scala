package repro.core

import repro.graph.{Graph, NodeScores}

/** The source graph `G_u` produced by Source-Push (Algorithm 2). `G_u` is
  * the per-query working set of SimPush: by Lemma 2 it holds O(1/eps)
  * attention nodes within L <= L* levels, so the later stages (Algorithms 3
  * and 4) run on this small structure instead of the full graph.
  *
  * `G_u`'s edges are implicit: every node of levels 0..L-1 is expanded, so
  * the paper's "incoming edges from the (l+1)-th level to the l-th level"
  * are exactly the full-graph in-edges of the keys of `h(l)`.
  *
  * @param L            the max level: the deepest level that holds an
  *                     attention node, or 0 if none does
  * @param levelsPushed levels propagated to certify L (`L <= levelsPushed <= L*`)
  * @param h            `h(l)(node)` = hitting probability `h^{(l)}(u, node)`,
  *                     for levels 0..L (exact, from exhaustive propagation);
  *                     each level a [[repro.graph.NodeScores]]
  * @param numEdges     number of `G_u` edges: the in-degree sum over the keys
  *                     of levels 0..L-1
  * @param attention    `attention(l)` = nodes with `h^{(l)}(u, .) >= epsH`,
  *                     levels 1..L (level 0 unused)
  */
final case class SourceGraph(
    u: Long,
    L: Int,
    levelsPushed: Int,
    h: IndexedSeq[Map[Long, Double]],
    numEdges: Long,
    attention: IndexedSeq[Map[Long, Double]],
) {
  def attentionCount: Int = attention.map(_.size).sum

  // simbench still reads the walk count; no walks are sampled.
  def numWalks: Long = 0L
}

/** Stage 1 of SimPush (Section 4.1): propagate hitting probabilities from
  * the query node level by level with [[repro.graph.LocalGraph.push]] on the
  * driver CSR, and take the max level L exactly from them.
  */
object SourcePush {

  /** `eps_h = (1 - sqrt(c)) / (3 sqrt(c)) * eps` — Definition 3 / Lemma 4. */
  def epsH(eps: Double, c: Double): Double = {
    val sc = math.sqrt(c)
    (1 - sc) / (3 * sc) * eps
  }

  /** `L* = floor(log_{1/sqrt(c)} (1/eps_h))` — Lemma 2. */
  def maxLevelBound(epsH: Double, c: Double): Int =
    math.floor(math.log(1.0 / epsH) / math.log(1.0 / math.sqrt(c))).toInt

  /** Walk budget of Algorithm 2, line 2: `2 log(1/((1-sqrt(c)) epsH delta)) / epsH^2`.
    * SimPush samples no walks; simbench still reports this budget.
    */
  def walkBudget(epsH: Double, c: Double, delta: Double): Long = {
    val sc = math.sqrt(c)
    math.ceil(2.0 * math.log(1.0 / ((1 - sc) * epsH * delta)) / (epsH * epsH)).toLong
  }

  /** Run Source-Push for query node `u`.
    *
    * Algorithm 2 samples √c-walks only to choose L; here L is read off the
    * exact levels instead, so Theorem 1 holds with no failure probability.
    * Propagation stops at L* or once `‖h^(l)‖₁ · sqrt(c) < epsH`: every entry
    * of a deeper level `l + k` is at most `‖h^(l)‖₁ · sqrt(c)^k`, so no
    * deeper level can hold an attention node.
    */
  def run(g: Graph, u: Long, c: Double, epsHv: Double): SourceGraph = {
    val lStar  = maxLevelBound(epsHv, c)
    val sqrtC  = math.sqrt(c)
    val local  = g.local
    val levels = scala.collection.mutable.ArrayBuffer(NodeScores.single(u.toInt, 1.0))
    var mass   = 1.0 // ‖h^(l)‖₁ of the last level
    var L      = 0
    while (levels.size <= lStar && mass * sqrtC >= epsHv) {
      val next = local.push(levels.last, c)
      var max  = 0.0
      var i    = 0
      mass = 0.0
      while (i < next.size) { val x = next.vals(i); mass += x; if (x > max) max = x; i += 1 }
      levels += next
      if (max >= epsHv) L = levels.size - 1
    }
    val h = levels.take(L + 1).toIndexedSeq
    // Every frontier node is expanded, so its in-edges are exactly the G_u
    // edges into this level from the next one.
    val numEdges  = h.init.iterator.flatMap(_.ids).map(v => local.inDeg(v).toLong).sum
    val attention = h.indices.map(l => if (l == 0) NodeScores.empty else h(l).keep((_, x) => x >= epsHv))
    SourceGraph(u, L, levels.size - 1, h, numEdges, attention)
  }

  // simbench calls the walk-era signature; the walk arguments are ignored.
  def run(g: Graph, u: Long, c: Double, epsHv: Double, delta: Double, maxWalks: Long, seed: Long): SourceGraph =
    run(g, u, c, epsHv)
}
