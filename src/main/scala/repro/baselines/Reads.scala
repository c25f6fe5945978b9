package repro.baselines

import java.util.SplittableRandom

import repro.graph.Graph

/** READS [12] (Section 2.2): index-based. Pre-computes `r` \sqrt{c}-walks of
  * depth at most `t` from *every* node; at query time, walk `i` of `u` is
  * paired with walk `i` of every other node `v`, and `s(u,v)` is estimated by
  * the fraction of pairs that meet (same node, same step) — the indicator
  * form of `s(u,v) = Pr[two \sqrt{c}-walks meet]`.
  *
  * The original compresses the stored walks into trees; we store them flat
  * (same estimator, same index cardinality up to constants), which is the
  * "static READS" variant the paper evaluates.
  */
object Reads {

  /** @param walks `walks(v * r + i)` is walk `i` of node `v`; index `l` is its
    *              position at step `l` (index 0 = `v`)
    * @param rows  total walk length, step 0 included
    */
  final case class Index(walks: Array[Array[Int]], r: Int, t: Int, rows: Long, buildMillis: Long)

  def buildIndex(g: Graph, r: Int, t: Int, c: Double, seed: Long = 31L): Index = {
    val t0 = System.nanoTime()
    val lg = g.local
    val walks = Array.tabulate(Math.multiplyExact(lg.n, r)) { id =>
      lg.sqrtCWalk(id / r, c, t, new SplittableRandom(RandomWalks.mix(seed, id.toLong)))
    }
    Index(walks, r, t, walks.iterator.map(_.length.toLong).sum, (System.nanoTime() - t0) / 1000000)
  }

  def query(g: Graph, idx: Index, u: Long): Map[Long, Double] = {
    val r     = idx.r
    val uInt  = u.toInt
    val meets = new Array[Int](g.local.n)
    for (v <- meets.indices if v != uInt; i <- 0 until r) {
      val uw  = idx.walks(uInt * r + i)
      val vw  = idx.walks(v * r + i)
      val len = math.min(uw.length, vw.length)
      var s   = 1 // step 0 is the start node itself; a pair of walks meets at most once
      while (s < len && uw(s) != vw(s)) s += 1
      if (s < len) meets(v) += 1
    }
    meets.indices.iterator.filter(meets(_) > 0)
      .map(v => v.toLong -> meets(v).toDouble / r).toMap + (u -> 1.0)
  }
}
