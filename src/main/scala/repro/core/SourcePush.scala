package repro.core

import org.apache.spark.sql.functions._
import repro.graph.Graph

/** The source graph `G_u` produced by Source-Push (Algorithm 2). `G_u` is
  * the per-query working set of SimPush: by Lemma 2 it holds O(1/eps)
  * attention nodes within L <= L* levels, so the later stages (Algorithms 3
  * and 4) run on this small structure instead of the full graph.
  *
  * `G_u`'s edges are implicit: every node of levels 0..L-1 is expanded, so
  * the paper's "incoming edges from the (l+1)-th level to the l-th level"
  * are exactly the full-graph in-edges of the keys of `h(l)`.
  *
  * @param h         `h(l)(node)` = hitting probability `h^{(l)}(u, node)`,
  *                  for levels 0..L (exact, from exhaustive propagation)
  * @param numEdges  number of `G_u` edges: the in-degree sum over the keys
  *                  of levels 0..L-1
  * @param attention `attention(l)` = nodes with `h^{(l)}(u, .) >= epsH`,
  *                  levels 1..L (level 0 unused)
  */
final case class SourceGraph(
    u: Long,
    L: Int,
    numWalks: Long,
    h: IndexedSeq[Map[Long, Double]],
    numEdges: Long,
    attention: IndexedSeq[Map[Long, Double]],
) {
  def attentionCount: Int = attention.map(_.size).sum
}

/** Stage 1 of SimPush (Section 4.1): detect the max level L by Monte-Carlo
  * walk sampling (a Spark job), then propagate hitting probabilities from
  * the query node level by level with [[repro.graph.LocalGraph.push]] on
  * the driver CSR.
  */
object SourcePush {

  /** `eps_h = (1 - sqrt(c)) / (3 sqrt(c)) * eps` — Definition 3 / Lemma 4. */
  def epsH(eps: Double, c: Double): Double = {
    val sc = math.sqrt(c)
    (1 - sc) / (3 * sc) * eps
  }

  /** `L* = floor(log_{1/sqrt(c)} (1/eps_h))` — Lemma 2. */
  def maxLevelBound(epsH: Double, c: Double): Int =
    math.floor(math.log(1.0 / epsH) / math.log(1.0 / math.sqrt(c))).toInt

  /** Walk budget of Algorithm 2, line 2: `2 log(1/((1-sqrt(c)) epsH delta)) / epsH^2`. */
  def walkBudget(epsH: Double, c: Double, delta: Double): Long = {
    val sc = math.sqrt(c)
    math.ceil(2.0 * math.log(1.0 / ((1 - sc) * epsH * delta)) / (epsH * epsH)).toLong
  }

  /** Run Source-Push for query node `u`.
    *
    * The level-detection threshold is `(epsH / 2) * numWalks` visits: the
    * Hoeffding argument in Lemma 5 detects `h >= epsH` through an estimate
    * `>= epsH/2`. (Algorithm 2's literal line 6 — half of all walks — is a
    * typo: it would require `h >= 1/2`; see DESIGN.md.)
    *
    * @param maxWalks cap on the sampled walks (the paper's budget grows as
    *                 1/epsH^2; the cap keeps tiny-eps runs tractable and only
    *                 affects the L-detection confidence, not correctness of
    *                 the propagation)
    */
  def run(g: Graph, u: Long, c: Double, epsHv: Double, delta: Double,
          maxWalks: Long = 2_000_000L, seed: Long = 42L): SourceGraph = {
    val lStar = maxLevelBound(epsHv, c)

    // --- Monte-Carlo level detection (Algorithm 2, lines 1-8) ---
    val numWalks  = math.max(1000L, math.min(maxWalks, walkBudget(epsHv, c, delta)))
    val threshold = (epsHv / 2.0) * numWalks
    val counts = RandomWalks.visitCounts(g, u, numWalks, c, lStar, seed)
      .where(col("step") >= 1 && col("visits") >= threshold)
      .agg(max("step"))
      .collect()
    val lDetected = counts.headOption.flatMap(r => Option(r.get(0))).map(_.toString.toInt).getOrElse(0)
    val L = math.min(lDetected, lStar)

    // --- Exhaustive residue propagation (Algorithm 2, lines 9-21) ---
    val local     = g.local
    val hLevels   = scala.collection.mutable.ArrayBuffer[Map[Long, Double]](Map(u -> 1.0))
    var numEdges  = 0L
    while (hLevels.size <= L && hLevels.last.nonEmpty) {
      val frontier = hLevels.last
      // Every frontier node is expanded, so its in-edges are exactly the G_u
      // edges into this level from the next one.
      numEdges += frontier.keysIterator.map(v => local.inDeg(v.toInt).toLong).sum
      hLevels += local.push(frontier, c)
    }
    val actualL = hLevels.size - 1 // may be < L if the frontier died out

    val attention = hLevels.zipWithIndex.map { case (hm, lvl) =>
      if (lvl == 0) Map.empty[Long, Double]
      else hm.filter { case (_, hv) => hv >= epsHv }
    }

    SourceGraph(u, actualL, numWalks, hLevels.toIndexedSeq, numEdges, attention.toIndexedSeq)
  }
}
