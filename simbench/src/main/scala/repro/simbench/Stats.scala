package repro.simbench

/** Order statistics used by every timing the benchmark reports. */
object Stats {

  /** A tail summary: the value at `percentile`, taken over `n` samples. */
  final case class Tail(value: Double, percentile: Double, n: Int, ruleMet: Boolean)

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val k = s.length / 2
    if (s.length % 2 == 1) s(k) else (s(k - 1) + s(k)) / 2
  }

  /** The highest percentile that still has at least `beyond` samples above
    * it: with `n` sorted samples that is the `(n - beyond)`-th smallest, at
    * percentile `100 (n - beyond) / n`. With `n <= beyond` no percentile
    * meets the rule; the maximum is reported instead and `ruleMet` is false,
    * so a short run never passes off its worst sample as a percentile.
    */
  def tail(xs: Seq[Double], beyond: Int = 10): Tail = {
    require(xs.nonEmpty, "tail of no samples")
    val s = xs.sorted
    val n = s.length
    if (n > beyond) Tail(s(n - beyond - 1), 100.0 * (n - beyond) / n, n, ruleMet = true)
    else Tail(s(n - 1), 100.0, n, ruleMet = false)
  }

  def mean(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "mean of no samples")
    xs.sum / xs.length
  }
}
