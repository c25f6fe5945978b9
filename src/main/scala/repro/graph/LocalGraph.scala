package repro.graph

import java.util.SplittableRandom

/** Compact CSR copy of a directed graph, held on the driver. It runs every
  * single-source level push ([[push]]: Source-Push, Reverse-Push and the
  * baselines' pushes), every random-walk simulation and the exact reference
  * computations.
  *
  * Node ids must be dense in `[0, n)`. Edges are directed `src -> dst`;
  * a \sqrt{c}-walk moves from a node to a uniformly random *in*-neighbor.
  */
final class LocalGraph(
    val n: Int,
    private val inOff: Array[Int],
    private val inAdj: Array[Int],
    private val outOff: Array[Int],
    private val outAdj: Array[Int],
) {

  /** Number of directed edges. */
  def m: Int = inAdj.length

  /** In-degree of node `v` in the full graph. */
  def inDeg(v: Int): Int = inOff(v + 1) - inOff(v)

  /** `v`'s in-edges are the slots `inStart(v) until inStart(v + 1)`; slot
    * `i` holds the edge `inSrc(i) -> v`. An allocation-free loop for hot code.
    */
  def inStart(v: Int): Int = inOff(v)

  /** Source node of in-edge slot `i` (see [[inStart]]). */
  def inSrc(i: Int): Int = inAdj(i)

  /** Out-neighbors of `v` (nodes `y` with an edge `v -> y`). */
  def outNeighbors(v: Int): IndexedSeq[Int] =
    (outOff(v) until outOff(v + 1)).map(outAdj)

  /** Uniformly random in-neighbor of `v`; requires `inDeg(v) > 0`. */
  def randomInNeighbor(v: Int, rng: SplittableRandom): Int =
    inAdj(inOff(v) + rng.nextInt(inDeg(v)))

  /** Simulate one \sqrt{c}-walk from `start` (Definition 2 of the paper):
    * at each step the walk stops with probability `1 - sqrt(c)`, otherwise
    * jumps to a random in-neighbor (or stops if there is none). Returns the
    * visited nodes; index `l` is the position at step `l` (index 0 = start).
    * At most `maxSteps` steps are taken beyond the start.
    */
  def sqrtCWalk(start: Int, c: Double, maxSteps: Int, rng: SplittableRandom): Array[Int] = {
    val sqrtC = math.sqrt(c)
    val buf   = new scala.collection.mutable.ArrayBuffer[Int](8)
    var cur   = start
    buf += cur
    var step = 0
    var live = true
    while (live && step < maxSteps) {
      if (rng.nextDouble() >= sqrtC || inDeg(cur) == 0) live = false
      else {
        cur = randomInNeighbor(cur, rng)
        buf += cur
        step += 1
      }
    }
    buf.toArray
  }

  /** Push a sparse frontier one level (one step of the \sqrt{c}-walk
    * transition or of its transpose); the one push kernel of every method.
    *
    * Along in-edges (`transpose = false`, the walk direction) the mass
    * `f(v)` moves to every in-neighbor `x` of `v` as `sqrt(c) * f(v) / din(v)`:
    * from `h^{(l)}(u, .)` this gives `h^{(l+1)}(u, .)`. Along out-edges
    * (`transpose = true`) it moves to every out-neighbor `y` of `v` as
    * `sqrt(c) * f(v) / din(y)`: from `h^{(l)}(., w)` this gives
    * `h^{(l+1)}(., w)`. Then `plus` is added. A node that receives nothing is
    * absent from the result; thresholds are the caller's, applied to `f`.
    *
    * The frontier goes in ascending node order over the raw CSR into a
    * dense `n`-slot accumulator kept with this graph, so each target sums
    * its shares in ascending source order.
    */
  def push(f: NodeScores, c: Double, transpose: Boolean = false,
           plus: NodeScores = NodeScores.empty): NodeScores = acc.synchronized {
    val sqrtC = math.sqrt(c)
    val (off, adj) = if (transpose) (outOff, outAdj) else (inOff, inAdj)
    var j = 0
    while (j < f.ids.length) {
      val v    = f.ids(j)
      val mass = f.vals(j)
      var i    = off(v)
      val end  = off(v + 1)
      if (transpose) while (i < end) { val y = adj(i); acc.add(y, sqrtC * mass / inDeg(y)); i += 1 }
      else if (i < end) {
        val w = sqrtC * mass / inDeg(v)
        while (i < end) { acc.add(adj(i), w); i += 1 }
      }
      j += 1
    }
    j = 0
    while (j < plus.ids.length) { acc.add(plus.ids(j), plus.vals(j)); j += 1 }
    acc.result()
  }

  /** Scratch of [[push]]; every push reads it out empty. */
  private lazy val acc = new NodeScores.Accumulator(n)

  /** Simulate two independent \sqrt{c}-walks from `u` and `v` and report
    * whether they ever meet (same node at the same step `>= 1`). With
    * `u == v` this estimates the last-meeting probability eta(w) = Pr[never
    * meet] of SLING/PRSim; with `u != v`, Monte-Carlo SimRank `s(u, v)`.
    */
  def pairWalksMeet(u: Int, v: Int, c: Double, maxSteps: Int, rng: SplittableRandom): Boolean = {
    val sqrtC = math.sqrt(c)
    var a = u; var b = v
    var step = 0
    while (step < maxSteps) {
      // advance both; either may die this step
      val aLive = rng.nextDouble() < sqrtC && inDeg(a) > 0
      val bLive = rng.nextDouble() < sqrtC && inDeg(b) > 0
      if (!aLive || !bLive) return false
      a = randomInNeighbor(a, rng)
      b = randomInNeighbor(b, rng)
      step += 1
      if (a == b) return true
    }
    false
  }
}

object LocalGraph {

  /** Build a CSR graph from an edge list with node ids in `[0, n)`. */
  def fromEdges(n: Int, edges: Iterable[(Int, Int)]): LocalGraph = {
    val inCnt  = new Array[Int](n + 1)
    val outCnt = new Array[Int](n + 1)
    var m = 0
    edges.foreach { case (s, d) =>
      require(s >= 0 && s < n && d >= 0 && d < n, s"edge ($s,$d) out of [0,$n)")
      inCnt(d + 1) += 1; outCnt(s + 1) += 1; m += 1
    }
    var i = 0
    while (i < n) { inCnt(i + 1) += inCnt(i); outCnt(i + 1) += outCnt(i); i += 1 }
    val inOff  = inCnt.clone(); val outOff = outCnt.clone()
    val inAdj  = new Array[Int](m); val outAdj = new Array[Int](m)
    val inPos  = inOff.clone(); val outPos = outOff.clone()
    edges.foreach { case (s, d) =>
      inAdj(inPos(d)) = s; inPos(d) += 1
      outAdj(outPos(s)) = d; outPos(s) += 1
    }
    new LocalGraph(n, inOff, inAdj, outOff, outAdj)
  }
}
