package repro.baselines

import repro.graph.LocalGraph

/** Level-wise push primitives shared by the baseline methods, all on the
  * driver CSR kernel [[repro.graph.LocalGraph.push]].
  *
  * Conventions match the paper: `h^{(l)}(v, w)` is the probability that a
  * \sqrt{c}-walk from `v` is at `w` after `l` steps. A *forward* push from
  * `u` flows along in-edges (walk direction) and yields `h^{(l)}(u, .)`; a
  * *reverse* push from `w` flows along out-edges (`transpose`) and yields
  * `h^{(l)}(., w)`, the reverse list of `w`.
  */
object PushOps {

  /** `levels(l)` maps a node to its mass after `l` pushes. */
  type Levels = IndexedSeq[Map[Long, Double]]

  /** Levels 0..maxLevel of a push from `seed` (fewer if a level empties):
    * `h^{(l)}(seed, .)`, or `h^{(l)}(., seed)` with `transpose`. Every pushed
    * level keeps only its entries `>= prune`, so nothing below `prune` is
    * pushed further (prune = 0 gives the exact exhaustive propagation).
    */
  def levels(lg: LocalGraph, seed: Long, c: Double, maxLevel: Int, prune: Double,
             transpose: Boolean = false): Levels = {
    val out = scala.collection.mutable.ArrayBuffer[Map[Long, Double]](Map(seed -> 1.0))
    while (out.size <= maxLevel && out.last.nonEmpty)
      out += lg.push(out.last, c, transpose).filter(_._2 >= prune)
    out.toIndexedSeq
  }

  /** Reverse lists `levels(lg, w, c, maxLevel, prune, transpose = true)` of
    * every seed `w`, in seed order.
    */
  def reverseLists(lg: LocalGraph, seeds: Seq[Long], c: Double, maxLevel: Int,
                   prune: Double): Map[Long, Levels] =
    seeds.iterator.map(w => w -> levels(lg, w, c, maxLevel, prune, transpose = true)).toMap

  /** Equation 3 over forward levels `hU` of `u` (already pruned):
    * `s(u, v) = sum_{l>=1} sum_w hU(l)(w) * eta(w) * rev(w)(l)(v)`, with
    * `s(u, u) = 1`.
    */
  def decomposition(u: Long, hU: Levels, eta: Map[Long, Double],
                    rev: Long => Levels): Map[Long, Double] = {
    val acc = scala.collection.mutable.HashMap.empty[Long, Double]
    for (l <- 1 until hU.size; (w, h) <- hU(l)) {
      val lists = rev(w)
      if (l < lists.size) {
        val hue = h * eta.getOrElse(w, 1.0)
        lists(l).foreach { case (v, hv) => acc.update(v, acc.getOrElse(v, 0.0) + hue * hv) }
      }
    }
    acc.toMap - u + (u -> 1.0)
  }
}
