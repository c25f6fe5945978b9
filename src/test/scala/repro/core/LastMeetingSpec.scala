package repro.core

import repro.{SparkSpec, TestGraphs, TestRefs}

class LastMeetingSpec extends SparkSpec {

  private val c = 0.6

  private def sourceGraph(name: String, eps: Double = 0.25): SourceGraph = {
    val g = TestGraphs.all(spark).toMap.apply(name)
    val u = (0 until g.numNodes.toInt).find(g.local.inDeg(_) > 0).get
    SourcePush.run(g, u, c, SourcePush.epsH(eps, c))
  }

  // --- Algorithm 3: hitting probabilities within G_u ---

  for (name <- Seq("cycle8", "toy", "er60", "pl80", "complete5")) {
    test(s"G_u hitting probabilities match the in-G_u DP on $name") {
      val g  = TestGraphs.all(spark).toMap.apply(name)
      val sg = sourceGraph(name)
      if (sg.L >= 2) {
        val hp    = LastMeeting.hittingProbs(sg, c, g.local)
        val index = LastMeeting.attentionIndex(sg)
        assert(hp.length == index.size && index.size == sg.attentionCount)
        // Row a must equal the exact G_u walk DP from a, restricted to the
        // attention targets; targets on a shallower level get 0.
        for ((a, i) <- index.zipWithIndex) {
          val dp = TestRefs.guHittingDP(sg, g.local, c, a._1, a._2)
          for ((b, j) <- index.zipWithIndex) {
            val expect = dp.getOrElse(b, 0.0)
            assert(math.abs(hp(i)(j) - expect) < 1e-9, s"h~ from $a to $b: ${hp(i)(j)} vs $expect")
          }
        }
      }
    }
  }

  // The identity behind the implicit G_u: every attention row is the
  // full-graph hitting distribution, because G_u keeps whole in-neighborhoods.
  for {
    name <- Seq("cycle8", "path6", "complete5", "toy", "er60", "pl80", "plU60")
    eps  <- Seq(0.25, 0.1)
  } test(s"attention rows equal the full-graph hitting DP on $name at eps=$eps") {
    val g     = TestGraphs.all(spark).toMap.apply(name)
    val sg    = sourceGraph(name, eps)
    val hp    = LastMeeting.hittingProbs(sg, c, g.local)
    val index = LastMeeting.attentionIndex(sg)
    for (((l, w), i) <- index.zipWithIndex) {
      val dp = TestRefs.hittingDP(g.local, w.toInt, c, sg.L - l)
      for (((lb, wb), j) <- index.zipWithIndex if lb > l)
        assert(math.abs(hp(i)(j) - dp(lb - l)(wb.toInt)) < 1e-12, s"($l,$w) -> ($lb,$wb)")
    }
  }

  test("attention self-probability is 1 at step 0") {
    val g  = TestGraphs.all(spark).toMap.apply("toy")
    val sg = sourceGraph("toy")
    val hp = LastMeeting.hittingProbs(sg, c, g.local)
    assert(sg.attentionCount > 0)
    LastMeeting.attentionIndex(sg).indices.foreach(a => assert(hp(a)(a) == 1.0))
  }

  // --- Algorithm 4: gamma ---

  for (name <- Seq("cycle8", "toy", "er60", "pl80", "plU60")) {
    test(s"gamma matches the exact pair-state DP on $name") {
      val g  = TestGraphs.all(spark).toMap.apply(name)
      val sg = sourceGraph(name)
      val hp = LastMeeting.hittingProbs(sg, c, g.local)
      val gammas = LastMeeting.gammas(sg, hp)
      for (l <- 1 to sg.L; w <- sg.attention(l).keys) {
        val expect = TestRefs.gammaPairDP(sg, g.local, c, l, w)
        val got    = gammas((l, w))
        assert(math.abs(got - expect) < 1e-9, s"gamma($l,$w): $got vs $expect")
      }
    }
  }

  test("gamma is 1 for attention nodes at the deepest level") {
    val sg = sourceGraph("er60")
    val g  = TestGraphs.all(spark).toMap.apply("er60")
    val gammas = LastMeeting.gammas(sg, LastMeeting.hittingProbs(sg, c, g.local))
    sg.attention(sg.L).keys.foreach { w => assert(gammas((sg.L, w)) == 1.0) }
  }

  test("gamma values are probabilities") {
    for (name <- Seq("toy", "pl80", "complete5")) {
      val g  = TestGraphs.all(spark).toMap.apply(name)
      val sg = sourceGraph(name)
      val gammas = LastMeeting.gammas(sg, LastMeeting.hittingProbs(sg, c, g.local))
      gammas.values.foreach(v => assert(v >= 0.0 && v <= 1.0))
      assert(gammas.keySet == (1 to sg.L).flatMap(l => sg.attention(l).keys.map(w => (l, w))).toSet)
    }
  }

  test("residues are h * gamma") {
    val name = "toy"
    val g  = TestGraphs.all(spark).toMap.apply(name)
    val sg = sourceGraph(name)
    val hp = LastMeeting.hittingProbs(sg, c, g.local)
    val gm = LastMeeting.gammas(sg, hp)
    val rs = LastMeeting.residues(sg, c, g.local)
    rs.foreach { case ((l, w), r) =>
      assert(math.abs(r - sg.h(l)(w) * gm((l, w))) < 1e-12)
    }
    assert(rs.keySet == gm.keySet)
  }

  test("on the cycle, converging-path corrections vanish (single in-neighbor chains)") {
    // On a directed cycle each node has exactly one in-neighbor, so two
    // walks from w either both survive and stay together... they DO meet at
    // every subsequent attention step, making gamma < 1 for non-deepest
    // attention nodes whenever a deeper attention node exists directly
    // upstream: gamma = 1 - c (meet at next attention one step up) ... We
    // verify against the pair DP rather than a closed form, and sanity-check
    // that some gamma is strictly below 1.
    val sg = sourceGraph("cycle8")
    val g  = TestGraphs.all(spark).toMap.apply("cycle8")
    val gammas = LastMeeting.gammas(sg, LastMeeting.hittingProbs(sg, c, g.local))
    if (sg.L >= 2) {
      val shallow = gammas.collect { case ((l, _), v) if l < sg.L => v }
      assert(shallow.exists(_ < 1.0), "expected re-meeting corrections on the cycle")
    }
  }
}
