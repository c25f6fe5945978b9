package repro.simbench

import org.scalatest.funsuite.AnyFunSuite

class GateSpec extends AnyFunSuite {

  // Exact row for u = 0 on a 4-node graph.
  private val truth = Array(1.0, 0.30, 0.10, 0.0)
  private val good  = Map(0L -> 1.0, 1L -> 0.28, 2L -> 0.09)

  test("an underestimate within eps passes") {
    assert(Gate.check(truth, good, 0, eps = 0.05, truthSlack = 0.0).isEmpty)
  }

  test("an overestimated score map is rejected") {
    val over = good + (1L -> 0.31)
    val errs = Gate.check(truth, over, 0, eps = 0.05, truthSlack = 0.0)
    assert(errs.exists(_.contains("> s=")), errs)
  }

  test("an error above eps is rejected, counting the truth's own slack") {
    assert(Gate.check(truth, good - 1L, 0, eps = 0.05, truthSlack = 0.0).exists(_.contains("max |s - s~|")))
    assert(Gate.check(truth, good, 0, eps = 0.021, truthSlack = 0.0).isEmpty)
    assert(Gate.check(truth, good, 0, eps = 0.021, truthSlack = 0.002).nonEmpty)
  }

  test("range, self score and node ids are checked") {
    assert(Gate.check(truth, good + (0L -> 0.9), 0, 0.05, 0.0).exists(_.contains("expected 1")))
    assert(Gate.check(truth, good - 0L, 0, 0.05, 0.0).exists(_.contains("expected 1")))
    assert(Gate.check(truth, good + (3L -> -0.1), 0, 0.05, 0.0).exists(_.contains("outside [0,1]")))
    assert(Gate.check(truth, good + (2L -> Double.NaN), 0, 0.05, 0.0).nonEmpty)
    assert(Gate.check(truth, good + (4L -> 0.0), 0, 0.05, 0.0).exists(_.contains("outside [0,4)")))
  }

  test("maxDiff compares two answers node by node") {
    assert(Gate.maxDiff(good, good) == 0.0)
    assert(math.abs(Gate.maxDiff(good, good + (2L -> 0.095)) - 0.005) < 1e-15)
    assert(Gate.maxDiff(good, good - 2L) == 0.09)
  }
}
