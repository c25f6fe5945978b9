package repro.graph

import scala.collection.immutable.HashMap

import org.scalatest.funsuite.AnyFunSuite

/** The `Map` contract of the compact node → score map, as simbench, the
  * metrics and the tests read it.
  */
class NodeScoresSpec extends AnyFunSuite {

  private val entries = Seq(7L -> 0.25, 2L -> 0.5, 40L -> 0.125, 0L -> 1.0)
  private val ns      = NodeScores.from(entries.toMap)
  private val boxed   = HashMap.from(entries)

  test("get, contains and apply on present, absent, negative and out-of-range ids") {
    entries.foreach { case (v, x) =>
      assert(ns.get(v).contains(x) && ns.contains(v) && ns(v) == x && ns.getOrElse(v, -1.0) == x)
    }
    for (v <- Seq(1L, 3L, 41L, -1L, -7L, Int.MaxValue.toLong, Int.MaxValue.toLong + 1, Long.MinValue, Long.MaxValue)) {
      assert(ns.get(v).isEmpty && !ns.contains(v) && ns.getOrElse(v, -1.0) == -1.0, s"id $v")
      assertThrows[NoSuchElementException](ns(v))
    }
  }

  test("the iterator yields ids in ascending order") {
    assert(ns.keysIterator.toSeq == Seq(0L, 2L, 7L, 40L))
    assert(ns.iterator.toSeq == entries.sortBy(_._1))
    assert(ns.valuesIterator.toSeq == Seq(1.0, 0.5, 0.25, 0.125))
  }

  test("scores - u + (u -> 1.0) stays compact, as simbench writes it") {
    for (u <- Seq(7L, 3L, 41L)) {
      val s = ns - u + (u -> 1.0)
      assert(s.isInstanceOf[NodeScores], s"u = $u")
      assert(s == boxed - u + (u -> 1.0))
      assert(s.keysIterator.toSeq == s.keysIterator.toSeq.sorted)
    }
    assert((ns - 3L) eq ns)
    assert(ns.updated(-1L, 2.0) == boxed.updated(-1L, 2.0))
    assert(ns.updated(2L, "x") == boxed.updated(2L, "x"))
  }

  test("== and hashCode agree with a HashMap of the same contents") {
    assert(ns == boxed && boxed == ns && ns.hashCode == boxed.hashCode)
    assert(ns != boxed.updated(2L, 0.75) && ns != boxed - 2L)
    assert(NodeScores.from(boxed) == ns)
  }

  test("the empty map") {
    val e = NodeScores.empty
    assert(e.isEmpty && e.size == 0 && e.iterator.isEmpty && e.get(0L).isEmpty)
    assert(e == Map.empty[Long, Double] && e.hashCode == Map.empty[Long, Double].hashCode)
    assert((e - 3L) eq e)
    assert(e + (3L -> 1.0) == Map(3L -> 1.0) && (e + (3L -> 1.0)).isInstanceOf[NodeScores])
    assert(NodeScores.from(Map.empty[Long, Double]) == e)
    assert(e.keep((_, _) => true) eq e)
  }

  test("keep filters on the arrays and keeps the order") {
    assert(ns.keep((v, x) => v > 0 && x < 0.5) == Map(7L -> 0.25, 40L -> 0.125))
    assert(ns.keep((_, _) => true) eq ns)
  }

  test("the accumulator sums per slot, keeps zero sums as keys, and clears") {
    val acc = new NodeScores.Accumulator(100)
    acc.add(9, 0.5); acc.add(3, 0.0); acc.add(9, 0.25) // few slots: the sort path
    assert(acc.result() == Map(3L -> 0.0, 9L -> 0.75))
    assert(acc.result().isEmpty)
    (0 until 100).reverse.foreach(v => acc.add(v, v.toDouble)) // many slots: the scan path
    val all = acc.result()
    assert(all.keysIterator.toSeq == (0L until 100L) && all.forall { case (v, x) => x == v.toDouble })
  }
}
