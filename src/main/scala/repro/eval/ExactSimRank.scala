package repro.eval

import repro.graph.LocalGraph

/** Exact all-pairs SimRank on the driver — dense power iteration
  * `S_{k+1} = (c P^T S_k P) ∨ I` with two sparse half-multiplications per
  * iteration (cost 2·m·n). Error after k iterations is at most c^k.
  *
  * This is the ground-truth generator for the benchmarks: the paper used
  * Monte-Carlo + pooling because its graphs had billions of edges; our
  * synthetic stand-ins are small enough to afford the exact answer, which
  * strictly strengthens the accuracy measurements (see DESIGN.md).
  */
object ExactSimRank {

  /** @return dense symmetric matrix `S` with `S(a)(b) = s(a, b)` */
  def allPairs(lg: LocalGraph, c: Double, iters: Int = 25): Array[Array[Double]] = {
    val n = lg.n
    // Materialize adjacency once; the hot loops below touch it n times each.
    val inAdj = Array.tabulate(n)(v => Array.range(lg.inStart(v), lg.inStart(v + 1)).map(lg.inSrc))
    val s = Array.tabulate(n)(i => { val r = new Array[Double](n); r(i) = 1.0; r })
    val u = Array.fill(n)(new Array[Double](n))
    var k = 0
    while (k < iters) {
      // Half-step 1: U[x] = (1/din(x)) * sum_{x' in I(x)} S[x']  (row gather)
      var x = 0
      while (x < n) {
        val row = u(x)
        java.util.Arrays.fill(row, 0.0)
        val nbrs = inAdj(x)
        if (nbrs.length > 0) {
          val inv = 1.0 / nbrs.length
          var t = 0
          while (t < nbrs.length) {
            val src = s(nbrs(t))
            var j = 0
            while (j < n) { row(j) += src(j) * inv; j += 1 }
            t += 1
          }
        }
        x += 1
      }
      // Half-step 2: S'[b][a] = c * (1/din(a)) * sum_{a' in I(a)} U[b][a'];
      // then diagonal <- 1 (the ∨ I).
      var b = 0
      while (b < n) {
        val ub   = u(b)
        val outR = s(b)
        java.util.Arrays.fill(outR, 0.0)
        var a = 0
        while (a < n) {
          val nbrs = inAdj(a)
          if (nbrs.length > 0) {
            var acc = 0.0
            var t = 0
            while (t < nbrs.length) { acc += ub(nbrs(t)); t += 1 }
            outR(a) = c * acc / nbrs.length
          }
          a += 1
        }
        outR(b) = 1.0
        b += 1
      }
      k += 1
    }
    s
  }

  /** Exact single-source row `s(u, .)`. */
  def singleSource(lg: LocalGraph, u: Int, c: Double, iters: Int = 25): Array[Double] =
    allPairs(lg, c, iters)(u)
}
