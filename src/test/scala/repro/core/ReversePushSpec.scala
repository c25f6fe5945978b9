package repro.core

import repro.{SparkSpec, TestGraphs, TestRefs}

class ReversePushSpec extends SparkSpec {

  private val c = 0.6

  test("unthresholded push from one seed reproduces h^{(l)}(v, w) exactly") {
    for (name <- Seq("toy", "er60", "cycle8")) {
      val g  = TestGraphs.all(spark).toMap.apply(name)
      val lg = g.local
      // seed node: any node with out-edges
      val w = (0 until lg.n).find(TestRefs.outDeg(lg, _) > 0).get
      for (l <- 1 to 3) {
        val scores = ReversePush.run(g, Map((l, w.toLong) -> 1.0), l, c, epsH = 0.0)
        // expected: h^{(l)}(v, w) for every v — via the forward DP from each v
        for (v <- 0 until lg.n) {
          val expect = TestRefs.hittingDP(lg, v, c, l)(l)(w)
          val got    = scores.getOrElse(v.toLong, 0.0)
          assert(math.abs(got - expect) < 1e-9, s"$name l=$l v=$v: $got vs $expect")
        }
      }
    }
  }

  test("push is linear in the residues") {
    val g = TestGraphs.all(spark).toMap.apply("toy")
    val w = 5L
    val s1 = ReversePush.run(g, Map((2, w) -> 1.0), 2, c, 0.0)
    val s2 = ReversePush.run(g, Map((2, w) -> 0.5), 2, c, 0.0)
    s1.foreach { case (v, x) => assert(math.abs(s2.getOrElse(v, 0.0) - 0.5 * x) < 1e-12) }
  }

  test("residues at multiple levels combine additively") {
    val g  = TestGraphs.all(spark).toMap.apply("er60")
    val lg = g.local
    val seeds = (0 until lg.n).filter(TestRefs.outDeg(lg, _) > 0).take(2)
    val (w1, w2) = (seeds(0).toLong, seeds(1).toLong)
    val both = ReversePush.run(g, Map((2, w1) -> 0.7, (1, w2) -> 0.4), 2, c, 0.0)
    val a = ReversePush.run(g, Map((2, w1) -> 0.7), 2, c, 0.0)
    val b = ReversePush.run(g, Map((1, w2) -> 0.4), 1, c, 0.0)
    val keys = both.keySet ++ a.keySet ++ b.keySet
    keys.foreach { v =>
      assert(math.abs(both.getOrElse(v, 0.0) - a.getOrElse(v, 0.0) - b.getOrElse(v, 0.0)) < 1e-12)
    }
  }

  test("thresholding only loses mass (never adds)") {
    val g = TestGraphs.all(spark).toMap.apply("pl80")
    val lg = g.local
    val w = (0 until lg.n).maxBy(TestRefs.outDeg(lg, _))
    val exact  = ReversePush.run(g, Map((3, w.toLong) -> 1.0), 3, c, 0.0)
    val pruned = ReversePush.run(g, Map((3, w.toLong) -> 1.0), 3, c, 0.05)
    pruned.foreach { case (v, s) => assert(s <= exact.getOrElse(v, 0.0) + 1e-12) }
  }

  test("a residue below the threshold is not pushed at all") {
    val g = TestGraphs.all(spark).toMap.apply("toy")
    val scores = ReversePush.run(g, Map((1, 5L) -> 1e-6), 1, c, epsH = 0.01)
    assert(scores.isEmpty)
  }

  test("empty residues produce empty scores") {
    val g = TestGraphs.all(spark).toMap.apply("toy")
    assert(ReversePush.run(g, Map.empty, 3, c, 0.01).isEmpty)
  }
}
