package repro.graph

import java.util.SplittableRandom

import org.scalacheck.{Gen, Prop, Test => QC}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.TestRefs

/** Randomized property tests for the CSR substrate — pure JVM, no Spark.
  * Each seed generates a random edge list and cross-checks every CSR
  * accessor against a naive adjacency-map model; scalacheck properties
  * check the level-push kernel against the hitting DP and its transpose.
  */
class LocalGraphPropSpec extends AnyFunSuite {

  private def randomEdges(seed: Int): (Int, Seq[(Int, Int)]) = {
    val rng = new SplittableRandom(seed)
    val n   = 2 + rng.nextInt(40)
    val m   = rng.nextInt(4 * n)
    val es  = (0 until m).map(_ => (rng.nextInt(n), rng.nextInt(n)))
    (n, es)
  }

  private val c = 0.6

  private val graphs: Gen[LocalGraph] =
    Gen.choose(1, 100000).map { seed => val (n, es) = randomEdges(seed); LocalGraph.fromEdges(n, es) }

  /** A sparse nonnegative vector over `[0, n)`. */
  private def sparse(n: Int): Gen[NodeScores] =
    Gen.listOf(Gen.zip(Gen.choose(0, n - 1), Gen.choose(0.0, 1.0)))
      .map(es => NodeScores.from(es.map { case (v, x) => v.toLong -> x }.toMap))

  private def check(p: Prop): Unit = {
    val r = QC.check(QC.Parameters.default.withMinSuccessfulTests(200).withInitialSeed(Seed(7L)), p)
    assert(r.passed, r.status.toString)
  }

  private def dot(x: Map[Long, Double], y: Map[Long, Double]): Double =
    x.iterator.map { case (k, v) => v * y.getOrElse(k, 0.0) }.sum

  test("push of a point mass along in-edges equals level 1 of the hitting DP") {
    check(Prop.forAll(graphs.flatMap(lg => Gen.choose(0, lg.n - 1).map(lg -> _))) { case (lg, u) =>
      val got = lg.push(NodeScores.single(u, 1.0), c)
      val dp  = TestRefs.hittingDP(lg, u, c, 1)(1)
      got.keySet == (0 until lg.n).filter(dp(_) > 0).map(_.toLong).toSet &&
        (0 until lg.n).forall(v => math.abs(got.getOrElse(v.toLong, 0.0) - dp(v)) <= 1e-12)
    })
  }

  test("push along out-edges is the adjoint of push along in-edges") {
    check(Prop.forAll(graphs.flatMap(lg => Gen.zip(sparse(lg.n), sparse(lg.n)).map(ab => (lg, ab._1, ab._2)))) {
      case (lg, a, b) => math.abs(dot(lg.push(a, c), b) - dot(a, lg.push(b, c, transpose = true))) <= 1e-12
    })
  }

  test("a frontier node with no in-neighbors contributes nothing to the in-edge push") {
    check(Prop.forAll(graphs.flatMap(lg => sparse(lg.n).map(lg -> _))) { case (lg, a) =>
      val (dead, live) = a.partition { case (v, _) => lg.inDeg(v.toInt) == 0 }
      val all = lg.push(a, c); val liveOnly = lg.push(NodeScores.from(live), c)
      dead.forall { case (v, x) => lg.push(NodeScores.single(v.toInt, x), c).isEmpty } && all.keySet == liveOnly.keySet &&
        all.forall { case (v, x) => math.abs(x - liveOnly(v)) <= 1e-12 }
    })
  }

  for (transpose <- Seq(false, true))
    test(s"the array kernel equals the boxed-map reference push (transpose = $transpose)") {
      // sparse(n) includes the empty frontier; the random graphs have dead ends
      check(Prop.forAll(graphs.flatMap(lg => sparse(lg.n).map(lg -> _))) { case (lg, a) =>
        val got  = lg.push(a, c, transpose)
        val ref  = TestRefs.push(lg, a, c, transpose)
        val tol  = 1e-15 * a.valuesIterator.sum
        got.keySet == ref.keySet &&
          got.keysIterator.toSeq == got.keysIterator.toSeq.sorted &&
          ref.forall { case (v, x) => math.abs(got(v) - x) <= tol }
      })
    }

  test("plus joins the pushed mass as one more summand per node") {
    check(Prop.forAll(graphs.flatMap(lg => Gen.zip(sparse(lg.n), sparse(lg.n)).map(ab => (lg, ab._1, ab._2)))) {
      case (lg, a, b) =>
        val pushed = lg.push(a, c, transpose = true)
        val got    = lg.push(a, c, transpose = true, plus = b)
        got.keySet == pushed.keySet ++ b.keySet &&
          got.forall { case (v, x) => x == pushed.getOrElse(v, 0.0) + b.getOrElse(v, 0.0) }
    })
  }

  for (seed <- 1 to 12) {
    test(s"CSR accessors match the naive model (seed $seed)") {
      val (n, es) = randomEdges(seed)
      val lg = LocalGraph.fromEdges(n, es)
      assert(lg.n == n && lg.m == es.size)
      val inModel  = es.groupBy(_._2).view.mapValues(_.map(_._1)).toMap
      val outModel = es.groupBy(_._1).view.mapValues(_.map(_._2)).toMap
      for (v <- 0 until n) {
        assert(lg.inDeg(v) == inModel.getOrElse(v, Nil).size, s"inDeg($v)")
        assert(TestRefs.outDeg(lg, v) == outModel.getOrElse(v, Nil).size, s"outDeg($v)")
        assert(TestRefs.inNeighbors(lg, v).sorted == inModel.getOrElse(v, Nil).sorted, s"in($v)")
        assert(lg.outNeighbors(v).sorted == outModel.getOrElse(v, Nil).sorted, s"out($v)")
      }
      // degree sums are both m
      assert((0 until n).map(lg.inDeg).sum == es.size)
      assert((0 until n).map(TestRefs.outDeg(lg, _)).sum == es.size)
    }
  }

  for (seed <- 1 to 8) {
    test(s"sqrtCWalk only follows in-edges and respects maxSteps (seed $seed)") {
      val (n, es) = randomEdges(seed + 100)
      val lg  = LocalGraph.fromEdges(n, es)
      val rng = new SplittableRandom(seed)
      for (_ <- 0 until 50) {
        val start = rng.nextInt(n)
        val walk  = lg.sqrtCWalk(start, c = 0.6, maxSteps = 7, rng)
        assert(walk.head == start)
        assert(walk.length <= 8)
        walk.sliding(2).foreach {
          case Array(a, b) => assert(TestRefs.inNeighbors(lg, a).contains(b))
          case _           =>
        }
      }
    }
  }

  for (seed <- 1 to 6) {
    test(s"randomInNeighbor is uniform over in-neighbors (seed $seed)") {
      val rng = new SplittableRandom(seed)
      val n   = 5 + rng.nextInt(10)
      // node 0 has in-edges from everyone else
      val lg = LocalGraph.fromEdges(n, (1 until n).map(i => (i, 0)))
      val counts = new Array[Int](n)
      val draws  = 20000
      (0 until draws).foreach(_ => counts(lg.randomInNeighbor(0, rng)) += 1)
      val expected = draws.toDouble / (n - 1)
      (1 until n).foreach { i =>
        assert(math.abs(counts(i) - expected) < 5 * math.sqrt(expected),
          s"neighbor $i drawn ${counts(i)} times, expected ~$expected")
      }
      assert(counts(0) == 0)
    }
  }

  test("pairWalksMeet never reports a meeting when the start has no in-edges") {
    val lg  = LocalGraph.fromEdges(3, Seq((0, 1), (1, 2)))
    val rng = new SplittableRandom(1)
    (0 until 200).foreach(_ => assert(!lg.pairWalksMeet(0, 0, 0.6, 10, rng)))
  }

  test("pairWalksMeet always meets on a self-referential pair graph") {
    // 1 -> 0 only: from 0, both walks must go to 1 if they survive; the
    // meeting probability is c per step pair, so over many trials some meet.
    val lg  = LocalGraph.fromEdges(2, Seq((1, 0), (0, 1)))
    val rng = new SplittableRandom(2)
    val meets = (0 until 2000).count(_ => lg.pairWalksMeet(0, 0, 0.6, 30, rng))
    // exact meet probability: both survive & land on 1: geometric with p=c
    // summed: c + (c... here each step both at same node, so P(meet) = c/(1) ...
    // empirically it must be close to c/(2-c) = 0.6/1.4 if walks continue... just
    // check it is within a broad band around the analytic P = c + c*... — use DP:
    // P(meet) = c * 1 + (1-c)*0: both must survive step 1 (prob c) and then they
    // are at the same node (1) — already met. So P = c.
    assert(math.abs(meets / 2000.0 - 0.6) < 0.05)
  }
}
