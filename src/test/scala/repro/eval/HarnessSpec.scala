package repro.eval

import repro.{SparkSpec, TestGraphs}
import repro.core.TruthCache
import repro.eval.Datasets.BenchDataset

class HarnessSpec extends SparkSpec {

  test("queryNodes is deterministic and only picks nodes with in-edges") {
    val g  = TestGraphs.all(spark).toMap.apply("pl80")
    val q1 = Datasets.queryNodes(g, 5, seed = 9)
    val q2 = Datasets.queryNodes(g, 5, seed = 9)
    assert(q1 == q2 && q1.size == 5)
    q1.foreach(u => assert(g.local.inDeg(u.toInt) > 0))
    val q3 = Datasets.queryNodes(g, 5, seed = 10)
    assert(q3.distinct.size == 5)
    q3.foreach(u => assert(g.local.inDeg(u.toInt) > 0))
  }

  test("queryNodes fails when fewer nodes than asked have in-edges") {
    val e = intercept[IllegalArgumentException](Datasets.queryNodes(TestGraphs.star(spark), 2))
    assert(e.getMessage.contains("found 1 of 2"), e.getMessage)
  }

  test("harness produces sane rows for SimPush on a tiny dataset") {
    val g  = TestGraphs.all(spark).toMap.apply("er60")
    val ds = BenchDataset("er60-test", "none", 0, 0, "directed", g)
    val truth = TruthCache.get("er60", g)
    val rows = Harness.simPush(ds, truth, Datasets.queryNodes(g, 2), Seq(0.2))
    assert(rows.size == 1)
    val r = rows.head
    assert(r.method == "SimPush" && r.dataset == "er60-test")
    assert(r.avgErr >= 0.0 && r.avgErr <= 0.2 + 1e-6)
    assert(r.avgPrec >= 0.0 && r.avgPrec <= 1.0)
    assert(r.avgQueryMillis > 0)
    assert(Harness.format(r).startsWith("| er60-test"))
  }

  test("header and format align on column count") {
    val r = Harness.RunRow("d", "m", "s", 1, 2, 3.0, 0.1, 0.9)
    assert(Harness.header.count(_ == '|') >= 9)
    assert(Harness.format(r).count(_ == '|') == 10)
  }
}
