package repro.eval

/** Accuracy metrics of Section 5.1: AvgError@k and Precision@k, both defined
  * against the ground-truth top-k set `V_k` of the query node (the query
  * node itself, whose SimRank is trivially 1, is excluded — the convention
  * of [21, 33]).
  */
object Metrics {

  /** Ground-truth top-k nodes by exact score, deterministic tie-break. */
  def topK(truth: Array[Double], u: Int, k: Int): Seq[Int] =
    truth.indices
      .filter(_ != u)
      .sortBy(v => (-truth(v), v))
      .take(k)

  /** Top-k of an estimated (sparse) score map. */
  def topKEst(est: Map[Long, Double], u: Long, k: Int): Seq[Long] =
    est.toSeq
      .filter(_._1 != u)
      .sortBy { case (v, s) => (-s, v) }
      .take(k)
      .map(_._1)

  /** `AvgError@k = (1/k) sum_{v in V_k} |s^(u,v) - s(u,v)|`. */
  def avgErrorAtK(truth: Array[Double], est: Map[Long, Double], u: Int, k: Int): Double = {
    val vk = topK(truth, u, k)
    if (vk.isEmpty) 0.0
    else vk.map(v => math.abs(est.getOrElse(v.toLong, 0.0) - truth(v))).sum / vk.size
  }

  /** `Precision@k = |V_k ∩ V'_k| / k`. */
  def precisionAtK(truth: Array[Double], est: Map[Long, Double], u: Int, k: Int): Double = {
    val vk = topK(truth, u, k)
    if (vk.isEmpty) 1.0
    else {
      val vkEst = topKEst(est, u.toLong, vk.size).toSet
      vk.count(v => vkEst.contains(v.toLong)).toDouble / vk.size
    }
  }

  /** Max absolute error over all nodes — the epsilon of Definition 1. */
  def maxAbsError(truth: Array[Double], est: Map[Long, Double], u: Int): Double =
    truth.indices.filter(_ != u)
      .map(v => math.abs(est.getOrElse(v.toLong, 0.0) - truth(v)))
      .foldLeft(0.0)(math.max)
}
