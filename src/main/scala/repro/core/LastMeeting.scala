package repro.core

import repro.graph.LocalGraph

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

  /** The attention nodes in level order, each level in its `keysIterator`
    * order: the row and column order of [[hittingProbs]].
    */
  def attentionIndex(sg: SourceGraph): IndexedSeq[LevelNode] =
    (1 to sg.L).flatMap(l => sg.attention(l).keysIterator.map(w => (l, w)))

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
    * level: a frontier node's row is the sum of its in-neighbours' rows one
    * level deeper, scaled by `sqrt(c) / din` (its in-degree in G equals the
    * one in G_u, Section 4.1). Only nodes that reach an attention node get
    * a row.
    */
  def hittingProbs(sg: SourceGraph, c: Double, local: LocalGraph): Array[Array[Double]] = {
    val sqrtC = math.sqrt(c)
    val first = levelStarts(sg)
    val k     = first(sg.L + 1)
    val hp    = new Array[Array[Double]](k)
    var up    = Map.empty[Long, Array[Double]] // rows of level l + 1
    for (l <- sg.L to 1 by -1) {
      val deeper = first(l + 1)
      val pulled = if (up.isEmpty) Map.empty[Long, Array[Double]] else sg.h(l).keysIterator.flatMap { x =>
        val ins = local.inNeighbors(x.toInt).flatMap(y => up.get(y.toLong))
        Option.when(ins.nonEmpty) {
          val f   = sqrtC / local.inDeg(x.toInt)
          val row = new Array[Double](k)
          ins.foreach { r => var b = deeper; while (b < k) { row(b) += f * r(b); b += 1 } }
          x -> row
        }
      }.toMap
      up = sg.attention(l).keysIterator.zipWithIndex.foldLeft(pulled) { case (rows, (w, i)) =>
        val row = rows.getOrElse(w, new Array[Double](k))
        row(first(l) + i) = 1.0
        hp(first(l) + i) = row
        rows.updated(w, row)
      }
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
