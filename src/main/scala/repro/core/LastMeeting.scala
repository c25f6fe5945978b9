package repro.core

import repro.graph.{LocalGraph, NodeScores}

/** Stage 2 of SimPush (Section 4.2): hitting probabilities between attention
  * nodes *within* `G_u` (Algorithm 3) and the last-meeting probabilities
  * `gamma^{(l)}(w)` (Algorithm 4).
  *
  * Both run on the driver over one dense `|A| x |A|` matrix of the O(1/eps)
  * attention nodes (Lemma 2), indexed by [[attentionIndex]]; the implicit
  * `G_u` edges (see [[SourceGraph]]) are read from the CSR.
  */
object LastMeeting {

  /** Key = (absolute level in G_u, node id). */
  type LevelNode = (Int, Long)

  /** The attention nodes in level order, each level in ascending node
    * order: the row and column order of [[hittingProbs]].
    */
  def attentionIndex(sg: SourceGraph): IndexedSeq[LevelNode] =
    (1 to sg.L).flatMap(l => NodeScores.from(sg.attention(l)).keysIterator.map(w => (l, w)))

  /** `first(l)` = index of the first level-`l` attention node, for levels
    * 0..L+1; `first(L + 1)` is the attention count.
    */
  private def levelStarts(sg: SourceGraph): Array[Int] =
    (0 to sg.L).scanLeft(0)((n, l) => n + sg.attention(l).size).toArray

  /** Hitting probabilities within G_u (Algorithm 3, via Equation 12).
    *
    * Returns `hp(a)(b)` = `\tilde h^{(i)}(w_a, w_b)` for attention nodes
    * `a = (l, w_a)` and `b = (l + i, w_b)` of [[attentionIndex]]: the
    * probability that a \sqrt{c}-walk from `w_a` (at level `l` of G_u,
    * walking within G_u) visits `w_b` at its `i`-th step. `hp(a)(a) = 1`;
    * entries for targets on the same or a shallower level are 0.
    *
    * The sweep goes from level L up to level 1 and keeps the rows of one
    * level in an `n`-slot array indexed by node: a frontier node's row is the
    * sum of its in-neighbours' rows one level deeper, in CSR order, scaled by
    * `sqrt(c) / din` (its in-degree in G equals the one in G_u, Section 4.1).
    * Only nodes that reach an attention node get a row. The two level arrays
    * are reused: each is cleared of its rows before it takes the next level.
    */
  def hittingProbs(sg: SourceGraph, c: Double, local: LocalGraph): Array[Array[Double]] = {
    val sqrtC = math.sqrt(c)
    val first = levelStarts(sg)
    val k     = first(sg.L + 1)
    val hp    = new Array[Array[Double]](k)
    var up    = new Array[Array[Double]](local.n) // rows of level l + 1, by node
    var cur   = new Array[Array[Double]](local.n) // rows of level l
    var upIds = Array.emptyIntArray               // nodes with a row in `up`
    for (l <- sg.L to 1 by -1) {
      val deeper = first(l + 1)
      val ids    = NodeScores.from(sg.h(l)).ids
      val att    = NodeScores.from(sg.attention(l)).ids
      var j      = 0
      while (j < ids.length) {
        val x   = ids(j)
        val f   = sqrtC / local.inDeg(x)
        var row = null: Array[Double]
        var i   = local.inStart(x)
        val end = local.inStart(x + 1)
        while (i < end) {
          val r = up(local.inSrc(i))
          if (r != null) {
            if (row == null) row = new Array[Double](k)
            var b = deeper; while (b < k) { row(b) += f * r(b); b += 1 }
          }
          i += 1
        }
        cur(x) = row
        j += 1
      }
      j = 0
      while (j < att.length) {
        val w = att(j)
        if (cur(w) == null) cur(w) = new Array[Double](k)
        cur(w)(first(l) + j) = 1.0
        hp(first(l) + j) = cur(w)
        j += 1
      }
      j = 0
      while (j < upIds.length) { up(upIds(j)) = null; j += 1 }
      val t = up; up = cur; cur = t
      upIds = ids ++ att
    }
    hp
  }

  /** Last-meeting probabilities `gamma^{(l)}(w)` for every attention node
    * (Algorithm 4, via Equations 9-11), given Algorithm 3's output.
    */
  def gammas(sg: SourceGraph, hp: Array[Array[Double]]): Map[LevelNode, Double] = {
    val index = attentionIndex(sg)
    val first = levelStarts(sg)
    val k     = index.size
    index.indices.map { a =>
      val (l, w) = index(a)
      val hw     = hp(a) // \tilde h^{(i)}(w, .)
      // rho(b) = rho^{(i)}(w_b), computed level by level (Equations 10 and 11).
      val rho    = new Array[Double](k)
      var gamma  = 1.0
      var b      = first(l + 1)
      while (b < k) {
        var r   = hw(b) * hw(b)
        var j   = first(l + 1)
        val end = first(index(b)._1) // attention nodes strictly between l and b's level
        while (j < end) {
          if (rho(j) > 0.0) { val hjb = hp(j)(b); r -= rho(j) * hjb * hjb }
          j += 1
        }
        if (r > 0.0) { rho(b) = r; gamma -= r }
        b += 1
      }
      (l, w) -> math.max(0.0, math.min(1.0, gamma))
    }.toMap
  }

  /** Convenience: run both algorithms and return the per-attention-node
    * initial residues `r^{(l)}(w) = h^{(l)}(u, w) * gamma^{(l)}(w)`
    * consumed by Reverse-Push (Algorithm 1, line 7).
    */
  def residues(sg: SourceGraph, c: Double, local: LocalGraph): Map[LevelNode, Double] = {
    val hp = hittingProbs(sg, c, local)
    val g  = gammas(sg, hp)
    g.map { case ((l, w), gamma) => (l, w) -> sg.h(l)(w) * gamma }
  }
}
