package repro.simbench

import scala.collection.mutable

/** One timed interval of a traced run. `parent` is the id of the span that
  * caused it (-1 for a root); spans of one query share `qid`.
  */
final case class Span(id: Int, name: String, qid: String, parent: Int, startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
}

/** In-memory span recorder: spans are only appended while the benchmark
  * runs and written out once at the end, so recording costs two clock reads
  * and one buffer append per span.
  */
final class Tracer {
  private val buf   = mutable.ArrayBuffer.empty[Span]
  private var stack = List.empty[Int]
  private var next  = 0

  def spans: Seq[Span] = buf.toSeq

  def currentId: Int = stack.headOption.getOrElse(-1)

  /** Time `body` as a child of the innermost open span. */
  def span[T](name: String, qid: String)(body: => T): T = {
    val id = next; next += 1
    val parent = currentId
    stack = id :: stack
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      stack = stack.tail
      buf += Span(id, name, qid, parent, t0, t1)
    }
  }

  /** Record a span measured elsewhere (e.g. from Spark listener events). */
  def add(name: String, qid: String, parent: Int, startNs: Long, endNs: Long): Span = {
    val s = Span(next, name, qid, parent, startNs, endNs); next += 1
    buf += s
    s
  }
}

object Trace {

  /** Length of the union of `intervals` clipped to `[lo, hi)`. */
  def coveredNs(lo: Long, hi: Long, intervals: Seq[(Long, Long)]): Long = {
    val clipped = intervals.map { case (a, b) => (math.max(a, lo), math.min(b, hi)) }
      .filter { case (a, b) => b > a }
      .sortBy(_._1)
    var total = 0L
    var curA  = Long.MinValue
    var curB  = Long.MinValue
    clipped.foreach { case (a, b) =>
      if (a > curB) { if (curB > curA) total += curB - curA; curA = a; curB = b }
      else if (b > curB) curB = b
    }
    if (curB > curA) total += curB - curA
    total
  }

  /** A span's self time: its duration minus the part of it that its direct
    * children cover.
    */
  def selfNs(s: Span, all: Seq[Span]): Long = {
    val kids = all.filter(_.parent == s.id).map(k => (k.startNs, k.endNs))
    s.durNs - coveredNs(s.startNs, s.endNs, kids)
  }
}
