package repro

import scala.collection.mutable

import repro.core.SourceGraph
import repro.graph.{Graph, GraphGen, LocalGraph}

/** Driver-side reference implementations used as oracles for the distributed
  * algorithms. Everything here is an independent, direct transcription of
  * the definitions (no shared code with the implementations under test).
  */
object TestRefs {

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
          lg.inNeighbors(y).foreach(x => out(l + 1)(x) += w)
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
          lg.inNeighbors(y).foreach(x => q(x) += w)
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
      sg.h(l).keys.map(v => (l, v) -> lg.inNeighbors(v.toInt).map(_.toLong))
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
            val ia = lg.inNeighbors(a); val ib = lg.inNeighbors(b)
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
