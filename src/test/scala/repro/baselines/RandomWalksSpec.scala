package repro.baselines

import java.util.SplittableRandom

import repro.{SparkSpec, TestGraphs}
import repro.graph.LocalGraph

/** The \sqrt{c}-walks ProbeSim samples: `LocalGraph.sqrtCWalk` seeded per
  * walk id with `RandomWalks.mix`.
  */
class RandomWalksSpec extends SparkSpec {

  private val c = 0.6

  private def walks(lg: LocalGraph, start: Int, num: Int, maxSteps: Int, seed: Long): Seq[Array[Int]] =
    (0 until num).map(id => lg.sqrtCWalk(start, c, maxSteps, new SplittableRandom(RandomWalks.mix(seed, id))))

  test("every walk starts at the query node at step 0") {
    val lg = TestGraphs.directed(spark).toMap.apply("er60").local
    val w  = walks(lg, 7, 500, 10, seed = 1)
    assert(w.size == 500)
    assert(w.forall(_.head == 7))
  }

  test("consecutive walk positions follow reversed edges") {
    val lg = TestGraphs.directed(spark).toMap.apply("pl80").local
    walks(lg, 3, 300, 8, seed = 2).foreach { path =>
      assert(path.length <= 9)
      path.sliding(2).foreach {
        case Array(a, b) => assert(lg.inNeighbors(a).contains(b), s"step $a -> $b not an in-edge")
        case _           =>
      }
    }
  }

  test("walks from a node with no in-neighbors stop immediately") {
    val lg = TestGraphs.star(spark).local // leaves have no in-edges; hub's walk dies after 1 step
    assert(walks(lg, 3, 200, 10, seed = 3).forall(_.length == 1)) // only step 0
    assert(walks(lg, 0, 200, 10, seed = 4).forall(_.length <= 2))
  }

  test("survival probability per step is ~sqrt(c)") {
    val lg = TestGraphs.directed(spark).toMap.apply("cycle8").local // walks never hit dead ends
    val n  = 20000
    val w  = walks(lg, 0, n, 12, seed = 5)
    val sqrtC   = math.sqrt(c)
    val atStep1 = w.count(_.length > 1).toDouble / n
    assert(math.abs(atStep1 - sqrtC) < 0.02, s"survival $atStep1 vs $sqrtC")
    val atStep3 = w.count(_.length > 3).toDouble / n
    assert(math.abs(atStep3 - math.pow(sqrtC, 3)) < 0.02)
  }

  test("walks are deterministic given a seed and differ across seeds") {
    val lg = TestGraphs.directed(spark).toMap.apply("er60").local
    def sig(seed: Long) = walks(lg, 1, 100, 8, seed).map(_.toSeq)
    assert(sig(11) == sig(11))
    assert(sig(11) != sig(12))
  }

  test("mix produces well-spread seeds") {
    val vals = (0L until 1000L).map(RandomWalks.mix(99, _)).toSet
    assert(vals.size == 1000)
  }
}
