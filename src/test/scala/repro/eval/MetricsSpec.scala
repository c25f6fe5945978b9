package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.TestRefs

class MetricsSpec extends AnyFunSuite {

  private val truth = Array(1.0, 0.5, 0.4, 0.3, 0.2, 0.0)

  test("topK excludes the query node and orders by score") {
    assert(Metrics.topK(truth, u = 0, k = 3) == Seq(1, 2, 3))
    assert(Metrics.topK(truth, u = 2, k = 3) == Seq(0, 1, 3))
  }

  test("topK tie-break is deterministic by node id") {
    val t = Array(0.5, 0.5, 0.5, 0.5)
    assert(Metrics.topK(t, u = 3, k = 2) == Seq(0, 1))
  }

  test("avgErrorAtK on a perfect estimate is 0") {
    val est = truth.zipWithIndex.map { case (s, i) => i.toLong -> s }.toMap
    assert(Metrics.avgErrorAtK(truth, est, u = 0, k = 3) == 0.0)
  }

  test("avgErrorAtK averages absolute errors over the truth top-k") {
    val est = Map(1L -> 0.4, 2L -> 0.5, 3L -> 0.3)
    // errors at nodes 1,2,3: 0.1, 0.1, 0.0
    assert(math.abs(Metrics.avgErrorAtK(truth, est, 0, 3) - 0.2 / 3) < 1e-12)
  }

  test("missing estimates count as zero") {
    assert(math.abs(Metrics.avgErrorAtK(truth, Map.empty, 0, 2) - 0.45) < 1e-12)
  }

  test("precisionAtK is fraction of overlap") {
    val est = Map(1L -> 0.9, 3L -> 0.8, 5L -> 0.7) // top-3 = {1,3,5}; truth top-3 = {1,2,3}
    assert(math.abs(Metrics.precisionAtK(truth, est, 0, 3) - 2.0 / 3) < 1e-12)
  }

  test("precision of the exact estimate is 1") {
    val est = truth.zipWithIndex.map { case (s, i) => i.toLong -> s }.toMap
    assert(Metrics.precisionAtK(truth, est, 0, 4) == 1.0)
  }

  test("maxAbsError and maxOverestimate") {
    val est = Map(1L -> 0.7, 2L -> 0.1)
    assert(math.abs(Metrics.maxAbsError(truth, est, 0) - 0.3) < 1e-12)
    assert(math.abs(TestRefs.maxOverestimate(truth, est, 0) - 0.2) < 1e-12)
    // pure underestimates have ~0 overestimate
    assert(TestRefs.maxOverestimate(truth, Map(1L -> 0.2), 0) == 0.0)
  }

  test("k larger than candidate set degrades gracefully") {
    val t = Array(1.0, 0.5)
    assert(Metrics.topK(t, 0, 10) == Seq(1))
    assert(Metrics.precisionAtK(t, Map(1L -> 0.5), 0, 10) == 1.0)
  }
}
