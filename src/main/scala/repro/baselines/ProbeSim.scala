package repro.baselines

import org.apache.spark.sql.functions._
import repro.graph.Graph

/** ProbeSim [21] (Section 2.2): the previous index-free state of the art and
  * SimPush's headline competitor.
  *
  * For each sampled \sqrt{c}-walk `W(u)` and each step `l` of the walk, a
  * *probe* from the walk node `w_l` computes, for every `v`, the probability
  * that a \sqrt{c}-walk from `v` FIRST meets `W(u)` at step `l` — a reverse
  * push from `w_l` for `l` levels in which mass passing through an earlier
  * walk node `w_j` at step `j < l` is cancelled (those walks already met).
  * Averaging over walks estimates `s(u,v) = sum_l sum_w f^{(l)}(u,v,w)`
  * (Equation 5).
  *
  * All probes of all walks are batched into one level-synchronous dataflow
  * keyed by `(walkId, targetStep)`; the per-walk sequential probing of the
  * original is the inefficiency SimPush removes, and it shows up here as the
  * large state this job carries compared to SimPush's single residue push.
  */
object ProbeSim {

  /** @param numWalks walks sampled from u (the paper's R = O(log(n/delta)/eps^2))
    * @param prune    drop probe mass below this (original truncates similarly)
    */
  final case class Params(numWalks: Int, prune: Double = 1e-5, c: Double = 0.6,
                          maxSteps: Int = 15, seed: Long = 29L)

  def query(g: Graph, u: Long, p: Params): Map[Long, Double] = {
    val spark = g.spark
    import spark.implicits._
    val sqrtC = math.sqrt(p.c)

    val walks = RandomWalks.sqrtCWalks(g, u, p.numWalks, p.c, p.maxSteps, p.seed)
      .localCheckpoint(true)
    // Probe seeds: every (walk, step>=1) position. Exclusions: the walk's own
    // positions at steps >= 1 (a probe path crossing w_j at step j met earlier).
    val seeds = walks.where(col("step") >= 1)
      .select(col("walkId"), col("step").as("target"), col("step").as("posStep"),
        col("node"), lit(1.0).as("r"))
    val excl = walks.where(col("step") >= 1)
      .select(col("walkId").as("xw"), col("step").as("xs"), col("node").as("xn"))
      .localCheckpoint(true)

    val acc = scala.collection.mutable.Map.empty[Long, Double]
    var state = seeds.localCheckpoint(true)
    var live  = state.where(col("posStep") >= 1).count()
    while (live > 0) {
      val pushed = g.edgesWithInDeg
        .join(state.where(col("posStep") >= 1 && col("r") >= p.prune)
          .withColumnRenamed("node", "snode"), col("src") === col("snode"))
        .select(col("walkId"), col("target"), (col("posStep") - 1).as("posStep"),
          col("dst").as("node"), (lit(sqrtC) * col("r") / col("din")).as("contrib"))
        .groupBy("walkId", "target", "posStep", "node")
        .agg(sum("contrib").as("r"))
      // Cancel mass sitting on an earlier walk position (posStep in [1, target)).
      val cleaned = pushed
        .join(excl,
          col("walkId") === col("xw") && col("posStep") === col("xs") &&
            col("node") === col("xn") && col("posStep") < col("target"),
          "left_anti")
        .localCheckpoint(true)
      cleaned.where(col("posStep") === 0)
        .groupBy("node").agg(sum("r").as("r"))
        .collect()
        .foreach(row => acc.update(row.getLong(0), acc.getOrElse(row.getLong(0), 0.0) + row.getDouble(1)))
      state = cleaned.where(col("posStep") >= 1)
      live  = state.count()
    }
    val scores = acc.map { case (v, s) => v -> s / p.numWalks }.toMap
    scores - u + (u -> 1.0)
  }
}
