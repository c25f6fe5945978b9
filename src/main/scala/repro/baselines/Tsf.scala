package repro.baselines

import java.util.SplittableRandom

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.Graph

/** TSF [28] (Section 2.2): index-based. The index holds `Rg` *one-way
  * graphs* — each node samples a single in-neighbor — so every node's walk
  * inside a one-way graph is deterministic. At query time each one-way graph
  * is reused `Rq` times by re-randomizing the query node's first hop; a
  * meeting of `u`'s walk and `v`'s walk at step `l` contributes `c^l`.
  *
  * We replicate TSF's two known quality flaws on purpose (the paper cites
  * them as the reason its guarantee is questionable): meetings are counted
  * every time they occur (over-estimation), and walks are assumed acyclic.
  * The per-step positions of all nodes are materialized at index time, which
  * matches TSF's heavy-index / light-query profile.
  */
object Tsf {

  /** @param positions `(gid, step, node, pos)` — node's position after `step`
    *                  moves in one-way graph `gid`, steps 1..t
    */
  final case class Index(positions: DataFrame, rg: Int, t: Int, rows: Long, buildMillis: Long)

  def buildIndex(g: Graph, rg: Int, t: Int, seed: Long = 37L): Index = {
    val spark = g.spark
    import spark.implicits._
    val t0 = System.nanoTime()
    val bc = g.localBroadcast
    val n  = g.numNodes
    val positions = spark.range(n * rg).as[Long].flatMap { id =>
      val v   = (id / rg).toInt
      val gid = (id % rg).toInt
      val lg  = bc.value
      // Follow the deterministic one-way chain: each node's sampled
      // in-neighbor depends only on (seed, gid, node).
      var cur = v
      val out = scala.collection.mutable.ArrayBuffer.empty[(Int, Int, Long, Long)]
      var step = 1
      var alive = true
      while (alive && step <= t) {
        if (lg.inDeg(cur) == 0) alive = false
        else {
          val rng = new SplittableRandom(RandomWalks.mix(seed + gid, cur.toLong))
          cur = lg.randomInNeighbor(cur, rng)
          out += ((gid, step, v.toLong, cur.toLong))
          step += 1
        }
      }
      out.toSeq
    }.toDF("gid", "step", "node", "pos")
      .localCheckpoint(true)
    Index(positions, rg, t, positions.count(), (System.nanoTime() - t0) / 1000000)
  }

  /** @param rq reuses of each one-way graph with a re-randomized first hop */
  def query(g: Graph, idx: Index, u: Long, rq: Int, c: Double, seed: Long = 41L): Map[Long, Double] = {
    val spark = g.spark
    import spark.implicits._
    val local = g.local
    val uInt  = u.toInt
    if (local.inDeg(uInt) == 0) return Map(u -> 1.0)

    // u's Rg*Rq walks: random first hop from the true graph, then the
    // deterministic one-way chain of that hop (its position after s-1 steps).
    val rng = new SplittableRandom(RandomWalks.mix(seed, u))
    val firstHops = for { gid <- 0 until idx.rg; q <- 0 until rq } yield
      (gid, q, local.randomInNeighbor(uInt, rng).toLong)
    val hopDf = firstHops.toDF("hgid", "q", "hop")

    // u position at step 1 is the hop itself; at step s>=2 it is the hop's
    // one-way position after s-1 steps.
    val uPosLater = idx.positions
      .join(broadcast(hopDf), col("gid") === col("hgid") && col("node") === col("hop"))
      .select(col("gid").as("ugid"), col("q"), (col("step") + 1).as("ustep"), col("pos").as("upos"))
    val uPos1 = hopDf.select(col("hgid").as("ugid"), col("q"), lit(1).as("ustep"), col("hop").as("upos"))
    val uPos  = uPos1.unionByName(uPosLater).where(col("ustep") <= idx.t)
      .localCheckpoint(true)

    val scores = idx.positions.where(col("node") =!= u)
      .join(broadcast(uPos),
        col("gid") === col("ugid") && col("step") === col("ustep") && col("pos") === col("upos"))
      .select(col("node"), pow(lit(c), col("step")).as("wgt"))
      .groupBy("node").agg(sum("wgt").as("s"))
      .collect()
      .map(r => r.getLong(0) -> r.getDouble(1) / (idx.rg * rq))
      .toMap
    scores - u + (u -> 1.0)
  }
}
