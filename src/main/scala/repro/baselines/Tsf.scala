package repro.baselines

import java.util.SplittableRandom

import repro.graph.LocalGraph

/** TSF [28] (Section 2.2): index-based. The index holds `Rg` *one-way
  * graphs* — each node samples a single in-neighbor — so every node's walk
  * inside a one-way graph is deterministic. At query time each one-way graph
  * is reused `Rq` times by re-randomizing the query node's first hop; a
  * meeting of `u`'s walk and `v`'s walk at step `l` contributes `c^l`.
  *
  * We replicate TSF's two known quality flaws on purpose (the paper cites
  * them as the reason its guarantee is questionable): meetings are counted
  * every time they occur (over-estimation), and walks are assumed acyclic.
  * The per-step positions of all nodes are materialized at index time, which
  * matches TSF's heavy-index / light-query profile.
  */
object Tsf {

  /** @param positions `positions(gid)(step)(v)` is node `v`'s position after
    *                  `step` moves in one-way graph `gid` (step 0 = `v`), or
    *                  -1 once its chain has hit a node with no in-neighbor
    * @param rows      live positions at steps 1..t
    */
  final case class Index(positions: Array[Array[Array[Int]]], rg: Int, t: Int, rows: Long,
                         buildMillis: Long)

  def buildIndex(lg: LocalGraph, rg: Int, t: Int, seed: Long = 37L): Index = {
    require(rg > 0, s"rg must be > 0, got $rg")
    require(t > 0, s"t must be > 0, got $t")
    val t0    = System.nanoTime()
    val start = Array.range(0, lg.n)
    val positions = Array.tabulate(rg) { gid =>
      // each node's sampled in-neighbor depends only on (seed, gid, node)
      val next = start.map { w =>
        if (lg.inDeg(w) == 0) -1
        else lg.randomInNeighbor(w, new SplittableRandom(RandomWalks.mix(seed + gid, w.toLong)))
      }
      Array.iterate(start, t + 1)(_.map(p => if (p < 0) -1 else next(p)))
    }
    val rows = positions.iterator.flatMap(_.iterator.drop(1)).map(_.count(_ >= 0).toLong).sum
    Index(positions, rg, t, rows, (System.nanoTime() - t0) / 1000000)
  }

  /** @param rq reuses of each one-way graph with a re-randomized first hop */
  def query(lg: LocalGraph, idx: Index, u: Long, rq: Int, c: Double, seed: Long = 41L): Map[Long, Double] = {
    require(rq > 0, s"rq must be > 0, got $rq")
    require(c > 0 && c < 1, s"c must be in (0, 1), got $c")
    val uInt  = u.toInt
    if (lg.inDeg(uInt) == 0) return Map(u -> 1.0)

    // u's Rg*Rq walks: random first hop from the true graph, then the
    // deterministic one-way chain of that hop, so u's walk is at step s
    // where its hop is after s-1 moves.
    val rng   = new SplittableRandom(RandomWalks.mix(seed, u))
    val sum   = new Array[Double](lg.n)
    val walks = new Array[Int](lg.n) // u's walks at each node, this step
    for (steps <- idx.positions) {
      val hops = Array.fill(rq)(lg.randomInNeighbor(uInt, rng))
      for (s <- 1 to idx.t) {
        val uPos = hops.map(h => steps(s - 1)(h)).filter(_ >= 0)
        uPos.foreach(p => walks(p) += 1)
        val at  = steps(s)
        val wgt = math.pow(c, s)
        var v = 0
        while (v < at.length) {
          val p = at(v)
          if (p >= 0 && walks(p) > 0 && v != uInt) sum(v) += walks(p) * wgt
          v += 1
        }
        uPos.foreach(walks(_) = 0)
      }
    }
    sum.indices.iterator.filter(sum(_) > 0)
      .map(v => v.toLong -> sum(v) / (idx.rg * rq)).toMap + (u -> 1.0)
  }
}
