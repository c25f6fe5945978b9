package repro.core

import repro.{SparkSpec, TestGraphs, TestRefs}

class SourcePushSpec extends SparkSpec {

  private val c = 0.6

  test("epsH and L* match the paper's formulas") {
    val eh = SourcePush.epsH(0.02, 0.6)
    // (1 - sqrt(0.6)) / (3 sqrt(0.6)) * 0.02 = 0.2254/2.3238 * 0.02
    assert(math.abs(eh - 0.0019398) < 1e-6)
    val lStar = SourcePush.maxLevelBound(eh, 0.6)
    assert(lStar == math.floor(math.log(1 / eh) / math.log(1 / math.sqrt(0.6))).toInt)
    assert(lStar > 0)
  }

  test("walk budget grows as 1/epsH^2") {
    val b1 = SourcePush.walkBudget(0.01, 0.6, 1e-4)
    val b2 = SourcePush.walkBudget(0.005, 0.6, 1e-4)
    assert(b2 > 3 * b1 && b2 < 5 * b1)
  }

  // Exactness of the propagated hitting probabilities, per graph.
  for ((name, _) <- TestGraphs.all(SparkSpec.shared)) {
    test(s"hitting probabilities equal the exact DP on $name") {
      val g    = TestGraphs.all(spark).toMap.apply(name)
      val u    = (0 until g.numNodes.toInt).find(g.local.inDeg(_) > 0).get
      val epsH = SourcePush.epsH(0.25, c)
      val sg   = SourcePush.run(g, u, c, epsH)
      val dp   = TestRefs.hittingDP(g.local, u, c, sg.L)
      for (l <- 0 to sg.L) {
        // every nonzero DP entry present and equal
        for (v <- 0 until g.local.n if dp(l)(v) > 1e-12) {
          val got = sg.h(l).getOrElse(v.toLong, 0.0)
          assert(math.abs(got - dp(l)(v)) < 1e-9, s"level $l node $v: $got vs ${dp(l)(v)}")
        }
        // no spurious entries
        sg.h(l).foreach { case (v, hv) =>
          assert(math.abs(hv - dp(l)(v.toInt)) < 1e-9)
        }
      }
    }
  }

  test("level mass sums to sqrt(c)^l on graphs without dead ends") {
    val g    = TestGraphs.directed(spark).toMap.apply("cycle8")
    val epsH = SourcePush.epsH(0.3, c)
    val sg   = SourcePush.run(g, 0, c, epsH)
    for (l <- 0 to sg.L) {
      assert(math.abs(sg.h(l).values.sum - math.pow(math.sqrt(c), l)) < 1e-9, s"level $l")
    }
  }

  test("attention sets are exactly the nodes with h >= epsH, levels >= 1") {
    val g    = TestGraphs.directed(spark).toMap.apply("pl80")
    val u    = (0 until 80).find(g.local.inDeg(_) > 0).get
    val epsH = SourcePush.epsH(0.2, c)
    val sg   = SourcePush.run(g, u, c, epsH)
    assert(sg.attention(0).isEmpty)
    for (l <- 1 to sg.L) {
      val expected = sg.h(l).filter(_._2 >= epsH)
      assert(sg.attention(l) == expected, s"level $l")
    }
    // Lemma 2: the attention count is bounded.
    val bound = math.sqrt(c) / ((1 - math.sqrt(c)) * epsH)
    assert(sg.attentionCount <= bound)
  }

  test("L is bounded by L*") {
    // ... and propagation certifies L within L*: L <= levelsPushed <= L*.
    for ((name, g) <- TestGraphs.all(spark); eps <- Seq(0.3, 0.1, 0.02)) {
      val epsH = SourcePush.epsH(eps, c)
      val u    = (0 until g.numNodes.toInt).find(g.local.inDeg(_) > 0).get
      val sg   = SourcePush.run(g, u, c, epsH)
      assert(sg.L <= sg.levelsPushed && sg.levelsPushed <= SourcePush.maxLevelBound(epsH, c),
        s"$name eps=$eps: L=${sg.L} levelsPushed=${sg.levelsPushed}")
      assert(sg.h.size == sg.L + 1 && sg.attention(sg.L).nonEmpty == (sg.L > 0), s"$name eps=$eps")
    }
  }

  // G_u is implicit: its edges are the in-edges of the expanded levels, and
  // each of them ends one level up.
  for {
    (name, _) <- TestGraphs.all(SparkSpec.shared)
    eps       <- Seq(0.25, 0.1)
  } test(s"G_u edge count is the in-degree sum of levels 0..L-1 on $name at eps=$eps") {
    val g  = TestGraphs.all(spark).toMap.apply(name)
    val u  = (0 until g.numNodes.toInt).find(g.local.inDeg(_) > 0).get
    val sg = SourcePush.run(g, u, c, SourcePush.epsH(eps, c))
    var expect = 0L
    for (l <- 0 until sg.L; v <- sg.h(l).keysIterator) {
      expect += g.local.inDeg(v.toInt)
      g.local.inNeighbors(v.toInt).foreach { x =>
        assert(sg.h(l + 1).contains(x.toLong), s"level $l node $v: in-neighbor $x missing one level up")
      }
    }
    assert(sg.numEdges == expect)
  }

  test("query node with no in-neighbors yields an empty source graph") {
    val g  = TestGraphs.star(spark)
    val sg = SourcePush.run(g, 3, c, SourcePush.epsH(0.2, c))
    assert(sg.L == 0 && sg.attentionCount == 0)
  }

  test("source graph is deterministic given the seed") {
    val g = TestGraphs.directed(spark).toMap.apply("er60")
    val u = (0 until 60).find(g.local.inDeg(_) > 0).get
    val epsH = SourcePush.epsH(0.25, c)
    val a = SourcePush.run(g, u, c, epsH)
    val b = SourcePush.run(g, u, c, epsH)
    assert(a.L == b.L && a.h == b.h && a.attention == b.attention)
  }
}
