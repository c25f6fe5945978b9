package repro.baselines

import java.util.SplittableRandom

import repro.graph.LocalGraph

/** ProbeSim [21] (Section 2.2): the previous index-free state of the art and
  * SimPush's headline competitor.
  *
  * For each sampled \sqrt{c}-walk `W(u)` and each step `t` of the walk, a
  * *probe* from the walk node `w_t` computes, for every `v`, the probability
  * that a \sqrt{c}-walk from `v` FIRST meets `W(u)` at step `t` — a reverse
  * push from `w_t` for `t` levels in which mass passing through an earlier
  * walk node `w_j` at step `j < t` is cancelled (those walks already met).
  * Averaging over walks estimates `s(u,v) = sum_t sum_w f^{(t)}(u,v,w)`
  * (Equation 5).
  *
  * Walks are sampled and probed one at a time on the driver CSR, as in the
  * original; this per-walk sequential probing is the inefficiency SimPush
  * removes with its single residue push.
  */
object ProbeSim {

  /** @param numWalks walks sampled from u (the paper's R = O(log(n/delta)/eps^2))
    * @param prune    drop probe mass below this (original truncates similarly)
    */
  final case class Params(numWalks: Int, prune: Double = 1e-5, c: Double = 0.6,
                          maxSteps: Int = 15, seed: Long = 29L) {
    require(numWalks > 0, s"numWalks must be > 0, got $numWalks")
    require(c > 0 && c < 1, s"c must be in (0, 1), got $c")
    require(maxSteps > 0, s"maxSteps must be > 0, got $maxSteps")
  }

  def query(lg: LocalGraph, u: Long, p: Params): Map[Long, Double] = {
    val acc = scala.collection.mutable.HashMap.empty[Long, Double]
    for (id <- 0 until p.numWalks) {
      val walk = lg.sqrtCWalk(u.toInt, p.c, p.maxSteps, new SplittableRandom(RandomWalks.mix(p.seed, id)))
      probe(lg, walk, p.c, p.prune).foreach { case (v, f) => acc.update(v, acc.getOrElse(v, 0.0) + f) }
    }
    acc.iterator.map { case (v, s) => v -> s / p.numWalks }.toMap - u + (u -> 1.0)
  }

  /** All probes of one walk `walk = (w_0, .., w_T)`: for every `v`, the sum
    * over `t in [1, T]` of the probability that a \sqrt{c}-walk from `v`
    * first meets the walk at step `t`. The probe of step `t` pushes from
    * `w_t` along out-edges for `t` levels, dropping mass below `prune` before
    * each push and cancelling the mass on `w_j` once it sits at step `j`,
    * `j in [1, t)`.
    */
  def probe(lg: LocalGraph, walk: Array[Int], c: Double, prune: Double): Map[Long, Double] = {
    val acc = scala.collection.mutable.HashMap.empty[Long, Double]
    for (t <- 1 until walk.length) {
      var r = Map(walk(t).toLong -> 1.0)
      var j = t
      while (j > 0 && r.nonEmpty) {
        r = lg.push(r.filter(_._2 >= prune), c, transpose = true)
        j -= 1
        if (j >= 1) r -= walk(j).toLong
      }
      r.foreach { case (v, f) => acc.update(v, acc.getOrElse(v, 0.0) + f) }
    }
    acc.toMap
  }
}
