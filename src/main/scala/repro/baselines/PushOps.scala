package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.Graph

/** Level-wise push primitives shared by the baseline methods.
  *
  * Conventions match the paper: `h^{(l)}(v, w)` is the probability that a
  * \sqrt{c}-walk from `v` is at `w` after `l` steps. A *forward* push from
  * `u` flows along in-edges (walk direction) and yields `h^{(l)}(u, .)`; it
  * is single-source and runs on the driver CSR ([[repro.graph.LocalGraph.push]]).
  * A *reverse* expansion from many seeds `w` flows along out-edges and yields
  * `h^{(l)}(., w)`; it is bulk work and stays a distributed join.
  */
object PushOps {

  /** Forward push from `u`: levels 0..maxLevel of `h^{(l)}(u, .)`.
    * Entries with `h < prune` are dropped *before* being pushed (prune = 0
    * gives the exact exhaustive propagation).
    */
  def forwardPush(g: Graph, u: Long, c: Double, maxLevel: Int,
                  prune: Double): IndexedSeq[Map[Long, Double]] = {
    val local = g.local
    val out   = scala.collection.mutable.ArrayBuffer[Map[Long, Double]](Map(u -> 1.0))
    while (out.size <= maxLevel && out.last.nonEmpty)
      out += local.push(out.last.filter(_._2 >= prune), c)
    out.toIndexedSeq
  }

  /** Multi-seed reverse expansion: given seeds `(key, node)` each carrying
    * mass 1 at level 0, returns `(key, level, node, h)` for levels
    * 0..maxLevel where `h = h^{(level)}(node, seed(key))`. Entries below
    * `prune` are dropped after each aggregation (SLING-style truncation).
    *
    * One distributed job per level; lineage is cut with localCheckpoint so
    * deep expansions do not accumulate Catalyst plans.
    */
  def reverseExpand(g: Graph, seeds: DataFrame, c: Double, maxLevel: Int,
                    prune: Double): DataFrame = {
    val spark = g.spark
    val sqrtC = math.sqrt(c)
    var state = seeds.select(col("key"), lit(0).as("level"), col("node"), lit(1.0).as("h"))
      .localCheckpoint(true)
    var acc = state
    var l   = 0
    var n   = state.count()
    while (l < maxLevel && n > 0) {
      state = g.edgesWithInDeg
        .join(state.withColumnRenamed("node", "snode"), col("src") === col("snode"))
        .select(col("key"), (col("level") + 1).as("level"), col("dst").as("node"),
          (lit(sqrtC) * col("h") / col("din")).as("contrib"))
        .groupBy("key", "level", "node").agg(sum("contrib").as("h"))
        .where(col("h") >= prune)
        .localCheckpoint(true)
      n = state.count()
      if (n > 0) acc = acc.unionByName(state)
      l += 1
    }
    acc
  }
}
