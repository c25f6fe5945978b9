package repro.core

import repro.{SparkSpec, TestGraphs, TestRefs}
import repro.eval.{ExactSimRank, Metrics}
import repro.graph.Graph

/** End-to-end SimPush against exact SimRank — the Theorem 1 guarantee
  * `s(u,v) - \tilde s(u,v) <= eps` plus the one-sided underestimation that
  * falls out of Lemmas 3-4.
  */
class SimPushSpec extends SparkSpec {

  private val c = 0.6

  private def truthFor(name: String): Array[Array[Double]] =
    TruthCache.get(name, TestGraphs.all(spark).toMap.apply(name))

  for {
    name <- Seq("cycle8", "path6", "complete5", "toy", "er60", "pl80", "plU60")
    eps  <- Seq(0.2, 0.1)
  } test(s"error guarantee holds on $name at eps=$eps") {
    val g     = TestGraphs.all(spark).toMap.apply(name)
    val truth = truthFor(name)
    val u     = (0 until g.numNodes.toInt).find(g.local.inDeg(_) > 0).get
    val r     = SimPush.singleSource(g, u, SimPushParams(eps, seed = 71))
    // lower side: Theorem 1 (deterministic: L is computed exactly)
    val worst = Metrics.maxAbsError(truth(u), r.scores, u)
    assert(worst <= eps + 1e-6, s"max error $worst exceeds eps=$eps")
    // upper side: \tilde s <= s (exact-arithmetic property of the design;
    // 1e-6 float slack, plus truth truncation c^25)
    val over = TestRefs.maxOverestimate(truth(u), r.scores, u)
    assert(over <= 1e-5, s"overestimate $over — SimPush must underestimate")
  }

  // The composition the query benchmark times layer by layer; it must be the
  // same program as singleSource, and it compiles against the layer APIs
  // (including simbench's 7-argument `SourcePush.run`).
  for {
    name <- Seq("cycle8", "path6", "complete5", "toy", "er60", "pl80", "plU60")
    eps  <- Seq(0.2, 0.1)
  } test(s"layer-by-layer composition equals singleSource on $name at eps=$eps") {
    val g  = TestGraphs.all(spark).toMap.apply(name)
    val u  = (0 until g.numNodes.toInt).find(g.local.inDeg(_) > 0).get.toLong
    val p  = SimPushParams(eps, seed = 71)
    val sg = SourcePush.run(g, u, p.c, p.epsH, p.delta, p.maxWalks, p.seed)
    val scores =
      if (sg.L == 0 || sg.attentionCount == 0) Map.empty[Long, Double]
      else {
        val hp  = LastMeeting.hittingProbs(sg, p.c, g.local)
        val gm  = LastMeeting.gammas(sg, hp)
        val res = gm.map { case ((l, w), gamma) => (l, w) -> sg.h(l)(w) * gamma }
        ReversePush.run(g, res, sg.L, p.c, p.epsH)
      }
    assert(scores - u + (u -> 1.0) == SimPush.singleSource(g, u, p).scores)
  }

  test("self similarity is 1 and absent nodes mean 0") {
    val g = TestGraphs.all(spark).toMap.apply("toy")
    val r = SimPush.singleSource(g, 0, SimPushParams(0.2))
    assert(r.scores(0L) == 1.0)
    r.scores.values.foreach(v => assert(v >= 0.0 && v <= 1.0 + 1e-9))
  }

  test("query node without in-neighbors returns only itself") {
    val g = TestGraphs.star(spark)
    val r = SimPush.singleSource(g, 3, SimPushParams(0.2))
    assert(r.scores == Map(3L -> 1.0))
    assert(r.L == 0 && r.attentionCount == 0)
  }

  test("star hub has all-zero similarities") {
    val g = TestGraphs.star(spark)
    val r = SimPush.singleSource(g, 0, SimPushParams(0.2))
    assert((r.scores - 0L).values.forall(_ <= 1e-12))
  }

  test("smaller eps gives at least as many attention nodes and no worse error") {
    val g     = TestGraphs.all(spark).toMap.apply("pl80")
    val truth = truthFor("pl80")
    val u     = (0 until 80).find(g.local.inDeg(_) > 0).get
    val rc    = SimPush.singleSource(g, u, SimPushParams(0.3, seed = 5))
    val rf    = SimPush.singleSource(g, u, SimPushParams(0.05, seed = 5))
    assert(rf.attentionCount >= rc.attentionCount)
    val errC = Metrics.avgErrorAtK(truth(u), rc.scores, u, 20)
    val errF = Metrics.avgErrorAtK(truth(u), rf.scores, u, 20)
    assert(errF <= errC + 1e-6)
  }

  test("precision@k is high at moderate eps") {
    val g     = TestGraphs.all(spark).toMap.apply("er60")
    val truth = truthFor("er60")
    val us    = (0 until 60).filter(g.local.inDeg(_) > 0).take(3)
    us.foreach { u =>
      val r = SimPush.singleSource(g, u, SimPushParams(0.05, seed = 9))
      val p = Metrics.precisionAtK(truth(u), r.scores, u, 10)
      assert(p >= 0.8, s"u=$u precision $p")
    }
  }

  test("result is deterministic in the seed") {
    val g = TestGraphs.all(spark).toMap.apply("er60")
    val u = (0 until 60).find(g.local.inDeg(_) > 0).get
    val a = SimPush.singleSource(g, u, SimPushParams(0.1, seed = 3))
    val b = SimPush.singleSource(g, u, SimPushParams(0.1, seed = 3))
    assert(a.scores == b.scores && a.L == b.L)
  }

  test("invalid parameters, query nodes and graph sizes fail fast") {
    Seq[() => Any](
      () => SimPushParams(0.0), () => SimPushParams(-0.1),
      () => SimPushParams(0.1, delta = 0.0), () => SimPushParams(0.1, delta = 1.0),
      () => SimPushParams(0.1, c = 0.0), () => SimPushParams(0.1, c = 1.0),
    ).foreach(mk => assertThrows[IllegalArgumentException](mk()))
    val g = TestGraphs.all(spark).toMap.apply("toy")
    assertThrows[IllegalArgumentException](SimPush.singleSource(g, -1, SimPushParams(0.2)))
    assertThrows[IllegalArgumentException](SimPush.singleSource(g, g.numNodes, SimPushParams(0.2)))
    val huge = Graph.fromEdgeList(spark, Int.MaxValue.toLong + 1, Seq((0L, 1L)))
    assertThrows[IllegalArgumentException](huge.local)
  }

  test("reported internals are consistent") {
    val g = TestGraphs.all(spark).toMap.apply("pl80")
    val u = (0 until 80).find(g.local.inDeg(_) > 0).get
    val p = SimPushParams(0.1)
    val r = SimPush.singleSource(g, u, p)
    assert(r.L <= p.lStar)
    assert(r.attentionCount <= math.sqrt(c) / ((1 - math.sqrt(c)) * p.epsH) + 1)
    assert(r.millis >= 0)
  }
}

/** Exact ground truth per test graph, computed once per JVM. */
object TruthCache {
  private val cache = scala.collection.mutable.Map.empty[String, Array[Array[Double]]]
  def get(name: String, g: repro.graph.Graph): Array[Array[Double]] = synchronized {
    cache.getOrElseUpdate(name, ExactSimRank.allPairs(g.local, 0.6, iters = 30))
  }
}
