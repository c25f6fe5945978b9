package repro.graph

import scala.collection.immutable

/** A node → score map held in two primitive arrays: node ids in ascending
  * order and their scores. It is what the push kernel ([[LocalGraph.push]])
  * returns, and what SimPush's levels, attention sets and answers hold.
  * About 12 bytes an entry, against 60–80 for a boxed `HashMap[Long, Double]`.
  *
  * Keys outside `[0, Int.MaxValue]` are never present. `get` is a binary
  * search; `removed` and `updated` with a `Double` return a `NodeScores`, so
  * `scores - u + (u -> 1.0)` stays compact. Equality and hash code are those
  * of every `Map`. Whoever builds one directly passes unique ids in
  * ascending order and does not change either array afterwards.
  */
final class NodeScores private[repro] (private[repro] val ids: Array[Int], private[repro] val vals: Array[Double])
    extends immutable.AbstractMap[Long, Double] {

  override def size: Int      = ids.length
  override def knownSize: Int = ids.length
  override def isEmpty: Boolean = ids.length == 0

  /** Slot of `key`, or a negative number if it is absent. */
  private def slot(key: Long): Int =
    if (key < 0 || key > Int.MaxValue) -1 else java.util.Arrays.binarySearch(ids, key.toInt)

  def get(key: Long): Option[Double] = { val i = slot(key); if (i >= 0) Some(vals(i)) else None }
  override def contains(key: Long): Boolean = slot(key) >= 0
  override def apply(key: Long): Double = {
    val i = slot(key)
    if (i >= 0) vals(i) else throw new NoSuchElementException(s"key not found: $key")
  }
  override def getOrElse[V1 >: Double](key: Long, default: => V1): V1 = {
    val i = slot(key); if (i >= 0) vals(i) else default
  }

  def iterator: Iterator[(Long, Double)] = ids.indices.iterator.map(i => ids(i).toLong -> vals(i))
  override def keysIterator: Iterator[Long]     = ids.iterator.map(_.toLong)
  override def valuesIterator: Iterator[Double] = vals.iterator

  def removed(key: Long): NodeScores = {
    val i = slot(key)
    if (i < 0) this
    else new NodeScores(
      Array.concat(ids.take(i), ids.drop(i + 1)), Array.concat(vals.take(i), vals.drop(i + 1)))
  }

  def updated[V1 >: Double](key: Long, value: V1): immutable.Map[Long, V1] = value match {
    case x: Double if key >= 0 && key <= Int.MaxValue =>
      val i = slot(key)
      if (i >= 0) new NodeScores(ids, vals.updated(i, x))
      else {
        val at = -i - 1
        new NodeScores(
          Array.concat(ids.take(at), Array(key.toInt), ids.drop(at)),
          Array.concat(vals.take(at), Array(x), vals.drop(at)))
      }
    case _ => immutable.HashMap.from(this).updated(key, value)
  }

  /** The entries `(v, x)` with `p(v, x)`, in the same compact form. */
  def keep(p: (Int, Double) => Boolean): NodeScores = {
    val idx = new Array[Int](ids.length)
    var k = 0
    var i = 0
    while (i < ids.length) { if (p(ids(i), vals(i))) { idx(k) = i; k += 1 }; i += 1 }
    if (k == ids.length) this
    else new NodeScores(Array.tabulate(k)(j => ids(idx(j))), Array.tabulate(k)(j => vals(idx(j))))
  }

  override def className: String = "NodeScores"
}

object NodeScores {

  val empty: NodeScores = new NodeScores(Array.emptyIntArray, Array.emptyDoubleArray)

  /** The map `v -> x`. */
  def single(v: Int, x: Double): NodeScores = new NodeScores(Array(v), Array(x))

  /** `m` itself if it is already compact, else its entries sorted by node. */
  def from(m: collection.Map[Long, Double]): NodeScores = m match {
    case s: NodeScores => s
    case _ =>
      require(m.keysIterator.forall(k => k >= 0 && k <= Int.MaxValue), "node ids must be in [0, Int.MaxValue]")
      val sorted = m.toArray.sortBy(_._1)
      new NodeScores(sorted.map(_._1.toInt), sorted.map(_._2))
  }

  /** A sparse accumulator over node ids `[0, n)` (Gilbert, Moler &
    * Schreiber, SIMAX 1992): dense `n`-slot sums plus the list of the slots
    * touched. [[result]] reads them out in ascending order and clears them,
    * so one accumulator serves many sums. Not thread-safe.
    */
  final class Accumulator(n: Int) {
    private val sums    = new Array[Double](n)
    private val seen    = new Array[Boolean](n)
    private val touched = new Array[Int](n)
    private var k       = 0

    /** Add `x` to slot `v`; the slot becomes a key even if `x` is 0. */
    def add(v: Int, x: Double): Unit = {
      if (!seen(v)) { seen(v) = true; touched(k) = v; k += 1 }
      sums(v) += x
    }

    /** The touched slots in ascending order and their sums, then clear.
      * Ligra's sparse/dense switch: fewer than `n / 16` touched slots are
      * sorted, O(k log k); more are found by a scan of the marks, O(n). Each
      * path wins on its side: on dblp-lite (4 vCPUs), sorting alone made
      * SimPush queries 1.8× slower and scanning alone made SLING's θ = 0.01
      * reverse lists 1.5× slower; cut-offs of 4 to 64 timed alike.
      */
    def result(): NodeScores = {
      val ids = new Array[Int](k)
      if (k.toLong * 16 < n) {
        System.arraycopy(touched, 0, ids, 0, k)
        java.util.Arrays.sort(ids)
      } else {
        var v = 0; var j = 0
        while (j < k) { if (seen(v)) { ids(j) = v; j += 1 }; v += 1 }
      }
      val out = new Array[Double](k)
      var i = 0
      while (i < k) { val v = ids(i); out(i) = sums(v); sums(v) = 0.0; seen(v) = false; i += 1 }
      k = 0
      new NodeScores(ids, out)
    }
  }
}
