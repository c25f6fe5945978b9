package repro.simbench

import java.util.SplittableRandom

import scala.collection.mutable

/** Seeded edge batches for the churn workload: the "writes beside reads"
  * that an index-free method is supposed to absorb for free.
  */
object Churn {

  /** SplitMix64 finalizer: decorrelates the per-step seeds of one workload seed. */
  def mix(seed: Long, step: Long): Long = {
    var z = seed + (step + 1) * 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** Delete `round(frac * m)` (at least 1) distinct edges chosen uniformly at
    * random, then insert as many new edges: ids uniform in `[0, n)`, no
    * self-loops, none already present. The result is a duplicate-free edge
    * list of the same size, a function of `(edges, n, seed, frac)` only.
    */
  def step(edges: Array[(Int, Int)], n: Int, seed: Long, frac: Double = 0.01): Array[(Int, Int)] = {
    require(n >= 2, s"churn needs at least 2 nodes, got $n")
    val m = edges.length
    val k = math.min(m, math.max(1, math.round(frac * m).toInt))
    val rng = new SplittableRandom(seed)
    // Partial Fisher-Yates over positions: the first k are deleted.
    val pos = Array.tabulate(m)(identity)
    var i = 0
    while (i < k) {
      val j = i + rng.nextInt(m - i)
      val t = pos(i); pos(i) = pos(j); pos(j) = t
      i += 1
    }
    val deleted = new Array[Boolean](m)
    (0 until k).foreach(i => deleted(pos(i)) = true)
    val present = mutable.HashSet.empty[Long]
    edges.foreach { case (s, d) => present += s.toLong * n + d }
    val out = mutable.ArrayBuffer.empty[(Int, Int)]
    out.sizeHint(m)
    var e = 0
    while (e < m) { if (!deleted(e)) out += edges(e); e += 1 }
    var added = 0
    while (added < k) {
      val s = rng.nextInt(n); val d = rng.nextInt(n)
      if (s != d && present.add(s.toLong * n + d)) { out += ((s, d)); added += 1 }
    }
    out.toArray
  }
}
