package repro.simbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("tail is the highest percentile with at least ten samples beyond it") {
    val xs = (1 to 100).map(_.toDouble)
    val t  = Stats.tail(xs)
    assert(t.ruleMet)
    assert(t.value == 90.0)            // 91..100 lie beyond it: exactly ten
    assert(t.percentile == 90.0)
    assert(xs.count(_ > t.value) == 10)
    assert(t.n == 100)
  }

  test("tail on eleven samples is the smallest one; order of input is irrelevant") {
    val xs = Seq(5.0, 1.0, 9.0, 3.0, 7.0, 11.0, 2.0, 10.0, 4.0, 8.0, 6.0)
    val t  = Stats.tail(xs)
    assert(t.ruleMet && t.value == 1.0 && xs.count(_ > t.value) == 10)
    assert(math.abs(t.percentile - 100.0 / 11) < 1e-12)
  }

  test("tail with ten or fewer samples reports the maximum and says the rule is not met") {
    val t = Stats.tail(Seq(3.0, 1.0, 2.0))
    assert(!t.ruleMet && t.value == 3.0 && t.percentile == 100.0 && t.n == 3)
    assert(!Stats.tail((1 to 10).map(_.toDouble)).ruleMet)
  }

  test("median of odd and even sample counts") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
  }
}
