package repro

import java.util.SplittableRandom

import scala.collection.mutable

import repro.baselines.RandomWalks
import repro.core.SourceGraph
import repro.graph.{Graph, GraphGen, LocalGraph}

/** Driver-side reference implementations used as oracles for the distributed
  * algorithms. Everything here is an independent, direct transcription of
  * the definitions (no shared code with the implementations under test).
  */
object TestRefs {

  /** Out-degree of `v`: the length of its out-neighbor list. */
  def outDeg(lg: LocalGraph, v: Int): Int = lg.outNeighbors(v).size

  /** In-neighbors of `v` (nodes `x` with an edge `x -> v`), in CSR order. */
  def inNeighbors(lg: LocalGraph, v: Int): IndexedSeq[Int] =
    (lg.inStart(v) until lg.inStart(v + 1)).map(lg.inSrc)

  /** The boxed-map level push that [[LocalGraph.push]] replaced, kept as its
    * reference: the same arithmetic per edge, summed in `HashMap` order.
    */
  def push(lg: LocalGraph, frontier: Map[Long, Double], c: Double, transpose: Boolean = false): Map[Long, Double] = {
    val sqrtC = math.sqrt(c)
    val next = mutable.HashMap.empty[Long, Double]
    frontier.foreach { case (node, mass) =>
      val v = node.toInt
      (if (transpose) lg.outNeighbors(v) else inNeighbors(lg, v)).foreach { y =>
        val w = sqrtC * mass / lg.inDeg(if (transpose) y else v)
        next.update(y.toLong, next.getOrElse(y.toLong, 0.0) + w)
      }
    }
    next.toMap
  }

  /** Max one-sided overestimate `max_v (est - truth)` over `v != u` — SimPush
    * guarantees `\tilde s <= s` (Lemmas 3-4), so this should be ~0 up to
    * float noise.
    */
  def maxOverestimate(truth: Array[Double], est: Map[Long, Double], u: Int): Double =
    truth.indices.filter(_ != u)
      .map(v => est.getOrElse(v.toLong, 0.0) - truth(v))
      .foldLeft(0.0)(math.max)

  /** READS' estimate by pairing walks one at a time: walk `i` of node `v` is
    * the \sqrt{c}-walk seeded with `mix(seed, v * r + i)`; `s(u, v)` is the
    * number of `i` whose walks of `u` and `v` share a node at a step `>= 1`,
    * over `r`. Nodes with no meeting are absent; `u` maps to 1.
    */
  def readsPairing(lg: LocalGraph, u: Int, r: Int, t: Int, c: Double, seed: Long): Map[Long, Double] = {
    def walk(v: Int, i: Int) = lg.sqrtCWalk(v, c, t, new SplittableRandom(RandomWalks.mix(seed, v.toLong * r + i)))
    val uWalks = (0 until r).map(walk(u, _))
    (0 until lg.n).filter(_ != u).flatMap { v =>
      val meets = (0 until r).count { i =>
        val (a, b) = (uWalks(i), walk(v, i))
        (1 until math.min(a.length, b.length)).exists(s => a(s) == b(s))
      }
      if (meets > 0) Some(v.toLong -> meets.toDouble / r) else None
    }.toMap + (u.toLong -> 1.0)
  }

  /** TSF's estimate with its two flaws, by following every chain step by
    * step: in one-way graph `gid` node `w` moves to the in-neighbor drawn by
    * `mix(indexSeed + gid, w)`. For each `(gid, q)` in order, `u` draws a
    * first hop from `mix(querySeed, u)` and then follows the hop's chain; a
    * node `v != u` at `u`'s position at step `l <= t` adds `c^l`, every time.
    * The sum is over `rg * rq`; nodes with no meeting are absent.
    */
  def tsfMeetingSum(lg: LocalGraph, u: Int, rg: Int, rq: Int, t: Int, c: Double,
                    indexSeed: Long, querySeed: Long): Map[Long, Double] = {
    if (lg.inDeg(u) == 0) return Map(u.toLong -> 1.0)
    // positions at steps 1..len of the chain from `from`, up to a dead end
    def chain(gid: Int, from: Int, len: Int): Seq[Int] = {
      val out = mutable.ArrayBuffer.empty[Int]
      var w   = from
      while (out.size < len && lg.inDeg(w) > 0) {
        w = lg.randomInNeighbor(w, new SplittableRandom(RandomWalks.mix(indexSeed + gid, w.toLong)))
        out += w
      }
      out.toSeq
    }
    val rng = new SplittableRandom(RandomWalks.mix(querySeed, u.toLong))
    val sum = mutable.Map.empty[Long, Double]
    for (gid <- 0 until rg; _ <- 0 until rq) {
      val hop   = lg.randomInNeighbor(u, rng)
      val uSeen = hop +: chain(gid, hop, t - 1)
      for (v <- 0 until lg.n if v != u; (p, s) <- chain(gid, v, t).zipWithIndex if s < uSeen.size && uSeen(s) == p)
        sum.update(v.toLong, sum.getOrElse(v.toLong, 0.0) + math.pow(c, s + 1))
    }
    sum.map { case (v, x) => v -> x / (rg * rq) }.toMap + (u.toLong -> 1.0)
  }

  /** Exact hitting probabilities `h^{(l)}(start, v)` in G for levels
    * 0..maxL, by dynamic programming over the walk distribution:
    * `p_{l+1}(x) = sum_{y: x in I(y)} p_l(y) * sqrt(c) / din(y)`.
    */
  def hittingDP(lg: LocalGraph, start: Int, c: Double, maxL: Int): Array[Array[Double]] = {
    val sqrtC = math.sqrt(c)
    val out   = Array.fill(maxL + 1)(new Array[Double](lg.n))
    out(0)(start) = 1.0
    for (l <- 0 until maxL) {
      for (y <- 0 until lg.n if out(l)(y) > 0) {
        val d = lg.inDeg(y)
        if (d > 0) {
          val w = sqrtC * out(l)(y) / d
          inNeighbors(lg, y).foreach(x => out(l + 1)(x) += w)
        }
      }
    }
    out
  }

  /** First-meeting probabilities of Equation 5 for one fixed walk
    * `walk = (w_0, .., w_T)`: for every start `v`, the sum over `j in [1, T]`
    * of the probability that a \sqrt{c}-walk from `v` is at `w_j` at step `j`
    * and was at no `w_i` at step `i in [1, j)`. A forward walk distribution
    * from `v` records and then zeroes its mass on `w_j` at step `j`.
    */
  def firstMeetingDP(lg: LocalGraph, walk: Array[Int], c: Double): Array[Double] = {
    val sqrtC = math.sqrt(c)
    Array.tabulate(lg.n) { v =>
      var p   = new Array[Double](lg.n)
      var met = 0.0
      p(v) = 1.0
      for (j <- 1 until walk.length) {
        val q = new Array[Double](lg.n)
        for (y <- 0 until lg.n if p(y) > 0 && lg.inDeg(y) > 0) {
          val w = sqrtC * p(y) / lg.inDeg(y)
          inNeighbors(lg, y).foreach(x => q(x) += w)
        }
        met += q(walk(j))
        q(walk(j)) = 0.0
        p = q
      }
      met
    }
  }

  /** In-neighbor sets *within G_u* per (level, node): `I^T` of Section 4.2.
    * Source-Push expands every node of levels 0..L-1, so a level-`l` node
    * keeps all of its in-neighbors in `lg`, one level up.
    */
  def guInNeighbors(sg: SourceGraph, lg: LocalGraph): Map[(Int, Long), Seq[Long]] =
    (0 until sg.L).flatMap { l =>
      sg.h(l).keys.map(v => (l, v) -> inNeighbors(lg, v.toInt).map(_.toLong))
    }.toMap

  /** Exact hitting probabilities within G_u from a node at `fromLevel`:
    * returns map (level, node) -> probability of being there, walking only
    * along G_u edges with uniform choice over `I^T` (Definition 5).
    */
  def guHittingDP(sg: SourceGraph, lg: LocalGraph, c: Double, fromLevel: Int, fromNode: Long): Map[(Int, Long), Double] = {
    val sqrtC = math.sqrt(c)
    val inT   = guInNeighbors(sg, lg)
    val probs = mutable.Map[(Int, Long), Double]((fromLevel, fromNode) -> 1.0)
    var cur   = Map[Long, Double](fromNode -> 1.0)
    var l     = fromLevel
    while (l < sg.L && cur.nonEmpty) {
      val next = mutable.Map.empty[Long, Double]
      cur.foreach { case (v, p) =>
        val nbrs = inT.getOrElse((l, v), Seq.empty)
        if (nbrs.nonEmpty) {
          val w = sqrtC * p / nbrs.size
          nbrs.foreach(x => next.update(x, next.getOrElse(x, 0.0) + w))
        }
      }
      cur = next.toMap
      cur.foreach { case (v, p) => probs.update((l + 1, v), p) }
      l += 1
    }
    probs.toMap
  }

  /** Exact last-meeting probability of Definition 4 via the pair-state DP:
    * two independent walks within G_u from attention node `w` at `level`;
    * gamma = 1 - Pr[they meet at an attention node at some deeper level].
    */
  def gammaPairDP(sg: SourceGraph, lg: LocalGraph, c: Double, level: Int, w: Long): Double = {
    val sqrtC = math.sqrt(c)
    val inT   = guInNeighbors(sg, lg)
    var state = Map[(Long, Long), Double]((w, w) -> 1.0)
    var met   = 0.0
    var l     = level
    while (l < sg.L && state.nonEmpty) {
      val next = mutable.Map.empty[(Long, Long), Double]
      state.foreach { case ((a, b), p) =>
        val na = inT.getOrElse((l, a), Seq.empty)
        val nb = inT.getOrElse((l, b), Seq.empty)
        if (na.nonEmpty && nb.nonEmpty) {
          val w2 = p * (sqrtC / na.size) * (sqrtC / nb.size)
          for (ap <- na; bp <- nb) {
            if (ap == bp && sg.attention(l + 1).contains(ap)) met += w2
            else next.update((ap, bp), next.getOrElse((ap, bp), 0.0) + w2)
          }
        }
      }
      state = next.toMap
      l += 1
    }
    1.0 - met
  }

  /** Exact SimRank row via the naive recursive definition, driver-side,
    * for cross-checking [[repro.eval.ExactSimRank]].
    */
  def naiveSimRank(lg: LocalGraph, c: Double, iters: Int): Array[Array[Double]] = {
    val n = lg.n
    var s = Array.tabulate(n)(i => Array.tabulate(n)(j => if (i == j) 1.0 else 0.0))
    for (_ <- 0 until iters) {
      val ns = Array.tabulate(n) { a =>
        Array.tabulate(n) { b =>
          if (a == b) 1.0
          else {
            val ia = inNeighbors(lg, a); val ib = inNeighbors(lg, b)
            if (ia.isEmpty || ib.isEmpty) 0.0
            else {
              var acc = 0.0
              ia.foreach(ap => ib.foreach(bp => acc += s(ap)(bp)))
              c * acc / (ia.size.toDouble * ib.size)
            }
          }
        }
      }
      s = ns
    }
    s
  }
}

/** Small graphs shared across suites, built once against the shared session. */
object TestGraphs {
  import org.apache.spark.sql.SparkSession

  private var directedCache: Seq[(String, Graph)]   = null
  private var undirectedCache: Seq[(String, Graph)] = null
  private var starCache: Graph                      = null

  def directed(spark: SparkSession): Seq[(String, Graph)] = synchronized {
    if (directedCache == null) directedCache = buildDirected(spark)
    directedCache
  }

  def undirected(spark: SparkSession): Seq[(String, Graph)] = synchronized {
    if (undirectedCache == null) undirectedCache = buildUndirected(spark)
    undirectedCache
  }

  def star(spark: SparkSession): Graph = synchronized {
    if (starCache == null) starCache = GraphGen.starInward(spark, 10)
    starCache
  }

  private def buildDirected(spark: SparkSession): Seq[(String, Graph)] = Seq(
    "cycle8"    -> GraphGen.cycle(spark, 8),
    "path6"     -> GraphGen.path(spark, 6),
    "complete5" -> GraphGen.complete(spark, 5),
    "er60"      -> GraphGen.erdosRenyi(spark, 60, 240, seed = 1),
    "pl80"      -> GraphGen.powerLaw(spark, 80, 400, alpha = 2.2, seed = 2),
    // Diamond-ish toy with converging paths (re-meeting walks): exercises
    // the last-meeting correction.
    "toy" -> Graph.fromEdgeList(spark, 8, Seq(
      (1L, 0L), (2L, 0L), (3L, 1L), (3L, 2L), (4L, 1L), (4L, 2L),
      (5L, 3L), (5L, 4L), (6L, 3L), (6L, 4L), (7L, 5L), (7L, 6L), (0L, 7L))),
  )

  private def buildUndirected(spark: SparkSession): Seq[(String, Graph)] = Seq(
    "plU60" -> GraphGen.powerLaw(spark, 60, 150, alpha = 2.0, seed = 3, undirected = true),
  )

  def all(spark: SparkSession): Seq[(String, Graph)] = directed(spark) ++ undirected(spark)

  // Note on `star`: all leaves point at the hub, so every SimRank involving
  // a leaf or the hub is 0 (leaves have no in-neighbors) — a degenerate case
  // every method must survive.
}
