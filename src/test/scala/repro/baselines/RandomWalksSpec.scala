package repro.baselines

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestGraphs}

class RandomWalksSpec extends SparkSpec {

  private val c = 0.6

  test("every walk starts at the query node at step 0") {
    val g = TestGraphs.directed(spark).toMap.apply("er60")
    val w = RandomWalks.sqrtCWalks(g, 7, 500, c, 10, seed = 1)
    val starts = w.where(col("step") === 0)
    assert(starts.count() == 500)
    assert(starts.where(col("node") =!= 7).count() == 0)
  }

  test("consecutive walk positions follow reversed edges") {
    val g = TestGraphs.directed(spark).toMap.apply("pl80")
    val w = RandomWalks.sqrtCWalks(g, 3, 300, c, 8, seed = 2).collect()
      .groupBy(_.getLong(0)).values
    val lg = g.local
    w.foreach { rows =>
      val path = rows.sortBy(_.getInt(1)).map(_.getLong(2).toInt)
      path.sliding(2).foreach {
        case Array(a, b) => assert(lg.inNeighbors(a).contains(b), s"step $a -> $b not an in-edge")
        case _           =>
      }
    }
  }

  test("walks from a node with no in-neighbors stop immediately") {
    val g = TestGraphs.star(spark) // leaves have no in-edges; hub's walk dies after 1 step
    val w = RandomWalks.sqrtCWalks(g, 3, 200, c, 10, seed = 3)
    assert(w.count() == 200) // only step 0
    val wh = RandomWalks.sqrtCWalks(g, 0, 200, c, 10, seed = 4)
    assert(wh.agg(max("step")).collect()(0).getInt(0) <= 1)
  }

  test("survival probability per step is ~sqrt(c)") {
    val g = TestGraphs.directed(spark).toMap.apply("cycle8") // walks never hit dead ends
    val n = 20000
    val w = RandomWalks.sqrtCWalks(g, 0, n, c, 12, seed = 5)
    val atStep1 = w.where(col("step") === 1).count().toDouble / n
    val sqrtC   = math.sqrt(c)
    assert(math.abs(atStep1 - sqrtC) < 0.02, s"survival $atStep1 vs $sqrtC")
    val atStep3 = w.where(col("step") === 3).count().toDouble / n
    assert(math.abs(atStep3 - math.pow(sqrtC, 3)) < 0.02)
  }

  test("walks are deterministic given a seed and differ across seeds") {
    val g  = TestGraphs.directed(spark).toMap.apply("er60")
    def sig(seed: Long) = RandomWalks.sqrtCWalks(g, 1, 100, c, 8, seed).collect()
      .map(r => (r.getLong(0), r.getInt(1), r.getLong(2))).toSet
    assert(sig(11) == sig(11))
    assert(sig(11) != sig(12))
  }

  test("mix produces well-spread seeds") {
    val vals = (0L until 1000L).map(RandomWalks.mix(99, _)).toSet
    assert(vals.size == 1000)
  }
}
