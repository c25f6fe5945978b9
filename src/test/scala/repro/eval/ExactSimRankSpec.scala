package repro.eval

import repro.{SparkSpec, TestGraphs, TestRefs}
import repro.baselines.MonteCarloSim
import repro.graph.Graph

class ExactSimRankSpec extends SparkSpec {

  private val c = 0.6

  test("matches the naive recursive-definition iteration on all test graphs") {
    for ((name, g) <- TestGraphs.all(spark)) {
      val fast  = ExactSimRank.allPairs(g.local, c, iters = 15)
      val naive = TestRefs.naiveSimRank(g.local, c, iters = 15)
      for (a <- 0 until g.local.n; b <- 0 until g.local.n) {
        assert(math.abs(fast(a)(b) - naive(a)(b)) < 1e-9, s"$name s($a,$b)")
      }
    }
  }

  test("hand-computed case: two nodes sharing one in-neighbor have s = c") {
    // 2 -> 0, 2 -> 1: I(0) = I(1) = {2}, so s(0,1) = c * s(2,2) = c.
    val g = Graph.fromEdgeList(spark, 3, Seq((2L, 0L), (2L, 1L)))
    val s = ExactSimRank.allPairs(g.local, c, 20)
    assert(math.abs(s(0)(1) - c) < 1e-9)
    assert(s(0)(2) == 0.0 && s(1)(2) == 0.0) // node 2 has no in-neighbors
  }

  test("hand-computed case: directed cycle has zero off-diagonal SimRank") {
    // walks from distinct nodes stay at a constant cyclic distance
    val s = ExactSimRank.allPairs(TestGraphs.all(spark).toMap.apply("cycle8").local, c, 25)
    for (a <- 0 until 8; b <- 0 until 8 if a != b) assert(s(a)(b) == 0.0)
  }

  test("diagonal is 1, matrix is symmetric, values in [0,1]") {
    val s = ExactSimRank.allPairs(TestGraphs.all(spark).toMap.apply("pl80").local, c, 20)
    for (a <- s.indices) {
      assert(s(a)(a) == 1.0)
      for (b <- s.indices) {
        assert(s(a)(b) >= 0.0 && s(a)(b) <= 1.0)
        assert(math.abs(s(a)(b) - s(b)(a)) < 1e-12)
      }
    }
  }

  test("iterations increase values monotonically (S_k is a lower bound)") {
    val lg = TestGraphs.all(spark).toMap.apply("toy").local
    val s5  = ExactSimRank.allPairs(lg, c, 5)
    val s15 = ExactSimRank.allPairs(lg, c, 15)
    for (a <- 0 until lg.n; b <- 0 until lg.n)
      assert(s15(a)(b) >= s5(a)(b) - 1e-12)
  }

  test("agrees with the Monte-Carlo meeting-probability estimator") {
    val g  = TestGraphs.all(spark).toMap.apply("toy")
    val s  = ExactSimRank.allPairs(g.local, c, 25)
    val vs = (0 until g.local.n).map(_.toLong)
    val mc = MonteCarloSim.pairMeetProb(g.local, u = 0, vs, samples = 40000, c = c)
    vs.foreach { v =>
      if (v != 0)
        assert(math.abs(mc(v) - s(0)(v.toInt)) < 0.02,
          s"v=$v mc=${mc(v)} exact=${s(0)(v.toInt)}")
    }
  }

  test("singleSource equals the matrix row") {
    val lg = TestGraphs.all(spark).toMap.apply("er60").local
    val all = ExactSimRank.allPairs(lg, c, 15)
    val row = ExactSimRank.singleSource(lg, 4, c, 15)
    assert(row.sameElements(all(4)))
  }
}
