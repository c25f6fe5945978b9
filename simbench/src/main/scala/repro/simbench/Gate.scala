package repro.simbench

import repro.eval.Metrics

/** The correctness gate every answer passes through. */
object Gate {

  /** Slack on `s~ <= s` (Lemmas 3-4). */
  val OverTol = 1e-9

  /** Floating-point slack on the range checks. */
  val RangeTol = 1e-12

  /** Violations of SimPush's contract by one answer `est` for query `u`,
    * against the exact row `truth` of the graph the answer was computed on,
    * where the true row `s` satisfies `truth <= s <= truth + truthSlack`:
    * node ids in `[0, n)`; `s~(u,u) = 1`; every score finite and in `[0, 1]`;
    * `s~ <= truth + 1e-9`, which implies `s~ <= s + 1e-9` (Lemmas 3-4); and
    * `max_v |truth - s~| + truthSlack <= eps`, which implies
    * `max_v |s - s~| <= eps` (Theorem 1). Empty means the answer passed.
    */
  def check(truth: Array[Double], est: Map[Long, Double], u: Int, eps: Double, truthSlack: Double): Seq[String] = {
    val n    = truth.length
    val errs = Seq.newBuilder[String]
    est.foreach { case (v, s) =>
      if (v < 0 || v >= n) errs += s"node $v outside [0,$n)"
      else if (s.isNaN || s < -RangeTol || s > 1 + RangeTol) errs += s"s~($u,$v)=$s outside [0,1]"
      else if (v != u && s > truth(v.toInt) + OverTol) errs += f"s~($u,$v)=$s%.12f > s=${truth(v.toInt)}%.12f"
    }
    val self = est.getOrElse(u.toLong, Double.NaN)
    if (!(math.abs(self - 1.0) <= RangeTol)) errs += s"s~($u,$u)=$self, expected 1"
    val worst = Metrics.maxAbsError(truth, est, u)
    if (!(worst + truthSlack <= eps)) errs += f"max |s - s~| = $worst%.6f (+ truth slack $truthSlack%.1e) > eps=$eps"
    errs.result()
  }

  /** Largest per-node difference between two answers (absent = 0). */
  def maxDiff(a: Map[Long, Double], b: Map[Long, Double]): Double =
    (a.keySet ++ b.keySet).iterator
      .map(v => math.abs(a.getOrElse(v, 0.0) - b.getOrElse(v, 0.0)))
      .foldLeft(0.0)(math.max)
}
