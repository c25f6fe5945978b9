package repro.simbench

import org.scalatest.funsuite.AnyFunSuite

class TraceSpec extends AnyFunSuite {

  private def span(id: Int, parent: Int, a: Long, b: Long) = Span(id, s"s$id", "q", parent, a, b)

  test("self time subtracts the union of the direct children only") {
    val root  = span(0, -1, 0, 100)
    val kidA  = span(1, 0, 10, 40)
    val kidB  = span(2, 0, 30, 60)    // overlaps kidA: union 10..60
    val grand = span(3, 1, 15, 35)    // nested in kidA: not subtracted from root
    val all   = Seq(root, kidA, kidB, grand)
    assert(Trace.selfNs(root, all) == 50)
    assert(Trace.selfNs(kidA, all) == 10)
    assert(Trace.selfNs(grand, all) == 20)
  }

  test("children are clipped to the parent's interval") {
    val root = span(0, -1, 100, 200)
    val kid  = span(1, 0, 90, 150)
    assert(Trace.selfNs(root, Seq(root, kid)) == 50)
    assert(Trace.coveredNs(0, 10, Seq((20L, 30L))) == 0)
  }

  test("the tracer nests spans by call structure and records every one") {
    val t = new Tracer
    val v = t.span("outer", "q1") { t.span("inner", "q1")(41) + 1 }
    assert(v == 42)
    val byName = t.spans.map(s => s.name -> s).toMap
    assert(byName("inner").parent == byName("outer").id)
    assert(byName("outer").parent == -1)
    assert(byName("outer").startNs <= byName("inner").startNs && byName("inner").endNs <= byName("outer").endNs)
    assert(Trace.selfNs(byName("outer"), t.spans) == byName("outer").durNs - byName("inner").durNs)
  }
}
