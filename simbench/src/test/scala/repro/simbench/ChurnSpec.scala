package repro.simbench

import org.scalatest.funsuite.AnyFunSuite

class ChurnSpec extends AnyFunSuite {

  private val n = 50
  private val base: Array[(Int, Int)] =
    (for (s <- 0 until n; d <- 0 until n if s != d && (s * 7 + d * 3) % 5 == 0) yield (s, d)).toArray

  test("the edge batch is a function of the seed") {
    assert(Churn.step(base, n, 11L).sameElements(Churn.step(base, n, 11L)))
    assert(!Churn.step(base, n, 11L).sameElements(Churn.step(base, n, 12L)))
    assert(Churn.mix(3L, 0) == Churn.mix(3L, 0) && Churn.mix(3L, 0) != Churn.mix(3L, 1))
  }

  test("ids stay in [0,n), no self-loops, no duplicates, size is kept") {
    var e = base
    (0 until 20).foreach { i =>
      e = Churn.step(e, n, Churn.mix(5L, i), frac = 0.05)
      assert(e.forall { case (s, d) => s >= 0 && s < n && d >= 0 && d < n })
      assert(e.forall { case (s, d) => s != d })
      assert(e.distinct.length == e.length)
      assert(e.length == base.length)
    }
  }

  test("about frac of the edges are replaced, at least one") {
    val k = math.round(0.01 * base.length).toInt max 1
    val after = Churn.step(base, n, 99L)
    assert(base.toSet.diff(after.toSet).size == k)
    assert(after.toSet.diff(base.toSet).size == k)
  }
}
