package repro.core

import org.scalacheck.{Gen, Prop, Test => QC}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import repro.{SparkSpec, TestRefs}
import repro.eval.ExactSimRank
import repro.graph.{Graph, GraphGen}

/** Properties of exact level selection on generated graphs: Source-Push's
  * L is the deepest level of the exact hitting DP that holds an attention
  * node, and SimPush meets Theorem 1 with no failure probability.
  */
class SourcePushPropSpec extends SparkSpec {

  private val c = 0.6

  /** Generated graphs, n <= 120. The sparse ones funnel the walk mass
    * through in-degree-1 chains, so attention nodes sit as deep as L* or just
    * above the level where the mass stop fires; the dense ones spread it.
    */
  private val specs: Seq[(String, Int, Int, Int)] =
    Seq((5, 5, 1), (8, 8, 1), (30, 37, 2), (60, 240, 5), (120, 480, 7)).map { case (n, m, s) => ("er", n, m, s) } ++
      Seq((8, 10, 2), (16, 24, 1), (20, 30, 4), (60, 180, 5), (120, 180, 3), (120, 240, 2), (120, 600, 7))
        .map { case (n, m, s) => ("pl", n, m, s) }

  private val built = scala.collection.mutable.Map.empty[(String, Int, Int, Int), (Graph, Array[Array[Double]])]

  /** The graph of `spec` and its exact SimRank (truncation error c^60 < 1e-13). */
  private def graph(spec: (String, Int, Int, Int)): (Graph, Array[Array[Double]]) =
    built.getOrElseUpdate(spec, {
      val (kind, n, m, seed) = spec
      val g = if (kind == "er") GraphGen.erdosRenyi(spark, n, m, seed) else GraphGen.powerLaw(spark, n, m, seed = seed)
      (g, ExactSimRank.allPairs(g.local, c, iters = 60))
    })

  /** A generated graph, a query node with in-degree > 0 and eps in [0.05, 0.3]. */
  private val queries: Gen[(Graph, Array[Array[Double]], Int, Double)] = for {
    spec <- Gen.oneOf(specs)
    gt    = graph(spec)
    u    <- Gen.oneOf((0 until gt._1.local.n).filter(gt._1.local.inDeg(_) > 0))
    eps  <- Gen.choose(0.05, 0.3)
  } yield (gt._1, gt._2, u, eps)

  private def check(p: Prop): Unit = {
    val r = QC.check(QC.Parameters.default.withMinSuccessfulTests(150).withInitialSeed(Seed(11L)), p)
    assert(r.passed, r.status.toString)
  }

  test("L is the deepest level of the exact hitting DP with an entry >= epsH") {
    check(Prop.forAllNoShrink(queries) { case (g, _, u, eps) =>
      val epsH  = SourcePush.epsH(eps, c)
      val lStar = SourcePush.maxLevelBound(epsH, c)
      val sg    = SourcePush.run(g, u, c, epsH)
      val dp    = TestRefs.hittingDP(g.local, u, c, lStar)
      val want  = (1 to lStar).filter(l => dp(l).exists(_ >= epsH)).lastOption.getOrElse(0)
      (sg.L == want && sg.L <= sg.levelsPushed && sg.levelsPushed <= lStar) :|
        s"u=$u eps=$eps L=${sg.L} want=$want levelsPushed=${sg.levelsPushed} L*=$lStar"
    })
  }

  test("Theorem 1 holds with no delta: s - s~ <= eps and s~ <= s") {
    check(Prop.forAllNoShrink(queries) { case (g, truth, u, eps) =>
      val est   = SimPush.singleSource(g, u, SimPushParams(eps)).scores
      val row   = truth(u)
      val trunc = math.pow(c, 60)
      val under = row.indices.map(v => row(v) + trunc - est.getOrElse(v.toLong, 0.0)).max
      val over  = row.indices.map(v => est.getOrElse(v.toLong, 0.0) - row(v)).max
      (under <= eps && over <= 1e-9) :| s"u=$u eps=$eps max(s - s~)=$under max(s~ - s)=$over"
    })
  }
}
