package repro.baselines

import repro.{SparkSpec, TestGraphs, TestRefs}
import repro.core.{SimPush, SimPushParams, TruthCache}
import repro.eval.Metrics

/** Accuracy and structural tests for the six competitor methods.
  * Monte-Carlo methods get statistical tolerances; push-based ones get
  * tight tolerances against exact references.
  */
class BaselinesSpec extends SparkSpec {

  private val c = 0.6

  private def graph(name: String) = TestGraphs.all(spark).toMap.apply(name)
  private def truth(name: String) = TruthCache.get(name, graph(name))
  private def firstQuery(name: String): Int = {
    val g = graph(name)
    (0 until g.numNodes.toInt).find(g.local.inDeg(_) > 0).get
  }

  // ---------------- PushOps ----------------

  test("forward levels with no pruning equal the hitting DP") {
    for (name <- Seq("toy", "er60")) {
      val g  = graph(name)
      val u  = firstQuery(name)
      val hs = PushOps.levels(g.local, u, c, maxLevel = 4, prune = 0.0)
      val dp = TestRefs.hittingDP(g.local, u, c, 4)
      for (l <- hs.indices; v <- 0 until g.local.n) {
        assert(math.abs(hs(l).getOrElse(v.toLong, 0.0) - dp(l)(v)) < 1e-9, s"$name l=$l v=$v")
      }
    }
  }

  test("transposed levels equal reverse hitting probabilities on every graph") {
    for ((name, g) <- TestGraphs.all(spark)) {
      val lg = g.local
      val dp = (0 until lg.n).map(v => TestRefs.hittingDP(lg, v, c, 3))
      for (w <- (0 until lg.n).filter(TestRefs.outDeg(lg, _) > 0).take(3)) {
        val rows = PushOps.levels(lg, w, c, maxLevel = 3, prune = 0.0, transpose = true)
        for (l <- 1 to 3; v <- 0 until lg.n) {
          val got = rows.lift(l).flatMap(_.get(v.toLong)).getOrElse(0.0)
          assert(math.abs(got - dp(v)(l)(w)) < 1e-12, s"$name w=$w l=$l v=$v")
        }
      }
    }
  }

  // ---------------- Eta ----------------

  test("eta estimates are probabilities and match exact never-meet on the cycle") {
    val g   = graph("cycle8")
    val eta = Eta.estimate(g, samplesPerNode = 2000, c, maxSteps = 25, seed = 3)
    eta.values.foreach(v => assert(v >= 0.0 && v <= 1.0))
    // on a directed cycle two walks from the same node move in lockstep and
    // meet at step 1 iff both survive: eta = 1 - c exactly
    eta.values.foreach(v => assert(math.abs(v - (1 - c)) < 0.04, s"eta=$v"))
  }

  test("eta is 1 for nodes whose walks die immediately") {
    val g   = TestGraphs.star(spark)
    val eta = Eta.estimate(g, 500, c, 10, seed = 4)
    (1 until 10).foreach(v => assert(eta(v.toLong) == 1.0)) // leaves: no in-edges
  }

  // ---------------- ProbeSim ----------------

  for (name <- Seq("toy", "er60", "pl80")) {
    test(s"ProbeSim approximates exact SimRank on $name") {
      val g = graph(name); val t = truth(name); val u = firstQuery(name)
      val est = ProbeSim.query(g, u, ProbeSim.Params(numWalks = 1200, seed = 17))
      val err = Metrics.avgErrorAtK(t(u), est, u, 20)
      assert(err < 0.05, s"avgErr@20 = $err")
      assert(Metrics.maxAbsError(t(u), est, u) < 0.12)
    }
  }

  test("ProbeSim returns 1 for the query node and only valid probabilities") {
    val g = graph("er60"); val u = firstQuery("er60")
    val est = ProbeSim.query(g, u, ProbeSim.Params(numWalks = 200))
    assert(est(u.toLong) == 1.0)
    est.values.foreach(v => assert(v >= 0.0 && v <= 1.0 + 1e-9))
  }

  for (name <- Seq("cycle8", "er60", "pl80")) {
    test(s"ProbeSim probe equals the first-meeting DP on $name") {
      val lg = graph(name).local
      val u  = firstQuery(name)
      val walks = (0L until 200L).iterator
        .map(id => lg.sqrtCWalk(u, c, 10, new java.util.SplittableRandom(RandomWalks.mix(5, id))))
        .filter(_.length >= 4).take(5).toSeq
      assert(walks.size == 5, s"only ${walks.size} walks of 3+ steps")
      walks.foreach { walk =>
        val got = ProbeSim.probe(lg, walk, c, prune = 0.0)
        val dp  = TestRefs.firstMeetingDP(lg, walk, c)
        for (v <- 0 until lg.n)
          assert(math.abs(got.getOrElse(v.toLong, 0.0) - dp(v)) < 1e-12,
            s"walk=${walk.mkString(",")} v=$v: ${got.getOrElse(v.toLong, 0.0)} vs ${dp(v)}")
      }
    }
  }

  test("ProbeSim on a dead-end query returns only the query node") {
    val g = TestGraphs.star(spark)
    assert(ProbeSim.query(g, 3, ProbeSim.Params(numWalks = 100)) == Map(3L -> 1.0))
  }

  // ---------------- SLING ----------------

  test("SLING index reverse lists match exact hitting probabilities (tight theta)") {
    val g   = graph("toy")
    val idx = Sling.buildIndex(g, theta = 1e-4, c = c)
    for (w <- 0 until g.local.n; l <- 1 to 3; v <- 0 until g.local.n) {
      val expect = TestRefs.hittingDP(g.local, v, c, l)(l)(w)
      if (expect > 0.01) {
        val got = idx.lists(w.toLong).lift(l).flatMap(_.get(v.toLong)).getOrElse(0.0)
        assert(math.abs(got - expect) < 0.005, s"w=$w l=$l v=$v: $got vs $expect")
      }
    }
  }

  for (name <- Seq("toy", "er60")) {
    test(s"SLING query approximates exact SimRank on $name") {
      val g = graph(name); val t = truth(name); val u = firstQuery(name)
      val idx = Sling.buildIndex(g, theta = 0.002, c = c, etaSamples = 2000)
      val est = Sling.query(g, idx, u, c)
      val err = Metrics.avgErrorAtK(t(u), est, u, 20)
      assert(err < 0.06, s"avgErr@20 = $err")
    }
  }

  test("SLING index shrinks as theta grows") {
    val g = graph("pl80")
    val fine   = Sling.buildIndex(g, theta = 0.005, c = c, etaSamples = 50)
    val coarse = Sling.buildIndex(g, theta = 0.05, c = c, etaSamples = 50)
    assert(coarse.rows < fine.rows)
  }

  // ---------------- PRSim ----------------

  for (name <- Seq("toy", "pl80")) {
    test(s"PRSim query approximates exact SimRank on $name") {
      val g = graph(name); val t = truth(name); val u = firstQuery(name)
      val idx = PrSim.buildIndex(g, theta = 0.002, c = c, j0 = 10, etaSamples = 2000)
      val est = PrSim.query(g, idx, u, c)
      val err = Metrics.avgErrorAtK(t(u), est, u, 20)
      assert(err < 0.06, s"avgErr@20 = $err")
    }
  }

  test("PRSim hub index is smaller than SLING's full index") {
    val g = graph("pl80")
    val sl = Sling.buildIndex(g, theta = 0.01, c = c, etaSamples = 50)
    val pr = PrSim.buildIndex(g, theta = 0.01, c = c, j0 = 9, etaSamples = 50)
    assert(pr.rows < sl.rows)
    assert(pr.hubs.size == 9)
  }

  test("PRSim hubs are the highest in-degree nodes") {
    val g  = graph("pl80")
    val pr = PrSim.buildIndex(g, theta = 0.05, c = c, j0 = 5, etaSamples = 20)
    val byDeg = (0 until g.local.n).sortBy(v => (-g.local.inDeg(v), v)).take(5).map(_.toLong).toSet
    assert(pr.hubs == byDeg)
  }

  // ---------------- Spark-free queries ----------------

  test("SimPush and all six competitors answer with no Spark job") {
    val g = graph("er60"); val u = firstQuery("er60")
    g.warm()
    val sl = Sling.buildIndex(g, theta = 0.01, c = c, etaSamples = 50)
    val pr = PrSim.buildIndex(g, theta = 0.01, c = c, j0 = 7, etaSamples = 50)
    val rd = Reads.buildIndex(g, r = 50, t = 10, c = c)
    val tf = Tsf.buildIndex(g, rg = 20, t = 10)
    val jobs = Seq(
      "SimPush"  -> sparkJobsIn(SimPush.singleSource(g, u, SimPushParams(0.05))),
      "ProbeSim" -> sparkJobsIn(ProbeSim.query(g, u, ProbeSim.Params(numWalks = 100))),
      "TopSim"   -> sparkJobsIn(TopSim.query(g, u, TopSim.Params(T = 3, invH = 100))),
      "SLING"    -> sparkJobsIn(Sling.query(g, sl, u, c)),
      "PRSim"    -> sparkJobsIn(PrSim.query(g, pr, u, c)),
      "READS"    -> sparkJobsIn(Reads.query(g, rd, u)),
      "TSF"      -> sparkJobsIn(Tsf.query(g, tf, u, rq = 10, c = c)),
    )
    assert(jobs.forall(_._2 == 0), s"Spark jobs per query: $jobs")
  }

  // ---------------- READS ----------------

  for (name <- Seq("toy", "er60")) {
    test(s"READS approximates exact SimRank on $name") {
      val g = graph(name); val t = truth(name); val u = firstQuery(name)
      val idx = Reads.buildIndex(g, r = 1500, t = 15, c = c)
      val est = Reads.query(g, idx, u)
      val err = Metrics.avgErrorAtK(t(u), est, u, 20)
      assert(err < 0.06, s"avgErr@20 = $err")
    }
  }

  test("READS index has ~n*r walk starts") {
    val g   = graph("toy")
    val idx = Reads.buildIndex(g, r = 20, t = 5, c = c)
    assert(idx.walks.length == g.numNodes * 20)
    idx.walks.zipWithIndex.foreach { case (walk, id) => assert(walk(0) == id / 20, s"walk $id") }
  }

  for (name <- Seq("toy", "er60", "plU60")) {
    test(s"READS query equals the walk-pairing oracle on $name") {
      val g   = graph(name)
      val idx = Reads.buildIndex(g, r = 40, t = 8, c = c, seed = 5)
      for (u <- Seq(firstQuery(name), g.local.n - 1))
        assert(Reads.query(g, idx, u) == TestRefs.readsPairing(g.local, u, 40, 8, c, seed = 5), s"u=$u")
    }
  }

  // ---------------- TSF ----------------

  test("TSF one-way positions follow real edges") {
    val g   = graph("er60")
    val idx = Tsf.buildIndex(g, rg = 3, t = 5)
    val lg  = g.local
    // position after 1 step must be an in-neighbor of the start node
    for (steps <- idx.positions; node <- 0 until lg.n if steps(1)(node) >= 0)
      assert(lg.inNeighbors(node).contains(steps(1)(node)))
  }

  for (name <- Seq("toy", "er60", "plU60")) {
    test(s"TSF query equals the meeting-sum oracle on $name") {
      val g   = graph(name)
      val idx = Tsf.buildIndex(g, rg = 12, t = 6, seed = 3)
      for (u <- Seq(firstQuery(name), g.local.n - 1)) {
        val got    = Tsf.query(g, idx, u, rq = 4, c = c, seed = 9)
        val expect = TestRefs.tsfMeetingSum(g.local, u, rg = 12, rq = 4, t = 6, c, indexSeed = 3, querySeed = 9)
        assert(got.keySet == expect.keySet, s"u=$u")
        got.foreach { case (v, s) => assert(math.abs(s - expect(v)) < 1e-12, s"u=$u v=$v: $s vs ${expect(v)}") }
      }
    }
  }

  test("TSF produces nonnegative scores correlated with the truth") {
    val g = graph("er60"); val t = truth("er60"); val u = firstQuery("er60")
    val idx = Tsf.buildIndex(g, rg = 60, t = 10)
    val est = Tsf.query(g, idx, u, rq = 10, c = c)
    est.values.foreach(v => assert(v >= 0.0))
    // TSF may overestimate (re-meetings counted) but ranking should broadly agree
    val topTruth = Metrics.topK(t(u), u, 5).map(_.toLong).toSet
    val topEst   = Metrics.topKEst(est, u, 15).toSet
    assert(topTruth.intersect(topEst).nonEmpty, "TSF ranking unrelated to truth")
  }

  // ---------------- TopSim ----------------

  test("TopSim ranks reasonably on er60 (no guarantee, per the paper)") {
    // note: the "toy" graph is layered with disjoint walk phases, so every
    // off-diagonal SimRank from node 0 is exactly 0 — precision is undefined
    // there; use a graph with nonzero scores instead.
    val g = graph("er60"); val t = truth("er60"); val u = firstQuery("er60")
    val est = TopSim.query(g, u, TopSim.Params(T = 4, invH = 10000, H = 1000, eta = 1e-6))
    est.values.foreach(v => assert(v >= 0.0))
    // no last/first-meeting correction: values may overestimate, but the
    // ranking should overlap the truth substantially
    val p = Metrics.precisionAtK(t(u), est, u, 10)
    assert(p >= 0.4, s"precision $p")
  }

  test("TopSim truncation degrades accuracy monotonically in T") {
    val g = graph("er60"); val t = truth("er60"); val u = firstQuery("er60")
    val shallow = TopSim.query(g, u, TopSim.Params(T = 1, invH = 10000))
    val deep    = TopSim.query(g, u, TopSim.Params(T = 4, invH = 10000))
    val pS = Metrics.precisionAtK(t(u), shallow, u, 10)
    val pD = Metrics.precisionAtK(t(u), deep, u, 10)
    assert(pD >= pS - 0.2, s"deep $pD vs shallow $pS")
  }

  test("TopSim on a dead-end query returns only the query node") {
    val g = TestGraphs.star(spark)
    assert(TopSim.query(g, 3, TopSim.Params(T = 3, invH = 100)) == Map(3L -> 1.0))
  }
}
