package repro.core

import repro.graph.{Graph, NodeScores}

/** Parameters of a SimPush query (Definition 1 + Algorithm 1).
  *
  * @param eps      absolute error threshold
  * @param c        SimRank decay factor (paper default 0.6)
  * @param delta    unused, like `maxWalks` and `seed`: L is exact (Theorem 1
  *                 holds with delta = 0); simbench still reads all three
  */
final case class SimPushParams(
    eps: Double,
    delta: Double = 1e-4,
    c: Double = 0.6,
    maxWalks: Long = 2_000_000L,
    seed: Long = 42L,
) {
  require(eps > 0, s"eps must be > 0, got $eps")
  require(delta > 0 && delta < 1, s"delta must be in (0, 1), got $delta")
  require(c > 0 && c < 1, s"c must be in (0, 1), got $c")
  val epsH: Double = SourcePush.epsH(eps, c)
  val lStar: Int   = SourcePush.maxLevelBound(epsH, c)
}

/** Result of a single-source SimPush query.
  *
  * @param scores sparse `\tilde s(u, v)` including `u -> 1`; absent nodes
  *               are 0. A [[repro.graph.NodeScores]]: two primitive arrays.
  * @param levelsPushed levels Source-Push propagated to certify `L`
  * @param nanos  wall time of the query
  */
final case class SimPushResult(
    u: Long,
    scores: Map[Long, Double],
    L: Int,
    levelsPushed: Int,
    attentionCount: Int,
    sourceGraphEdges: Long,
    nanos: Long,
) {
  def millis: Double = nanos / 1e6
}

/** SimPush (Algorithm 1): index-free approximate single-source SimRank.
  *
  * Stages 1 (Source-Push, which also fixes L exactly) and 3 (Reverse-Push)
  * propagate level by level over the driver CSR ([[repro.graph.LocalGraph.push]]),
  * and stage 2 operates on the tiny per-query source graph `G_u`: no Spark
  * job. This mirrors the paper's separation between O(m)-per-level
  * full-graph work and O(1/eps)-sized attention-node work.
  */
object SimPush {

  def singleSource(g: Graph, u: Long, p: SimPushParams): SimPushResult = {
    require(u >= 0 && u < g.numNodes, s"query node $u is not in [0, ${g.numNodes})")
    val t0 = System.nanoTime()
    val sg = SourcePush.run(g, u, p.c, p.epsH)
    val scores: Map[Long, Double] =
      if (sg.L == 0 || sg.attentionCount == 0) NodeScores.empty
      else {
        val res = LastMeeting.residues(sg, p.c, g.local)
        ReversePush.run(g, res, sg.L, p.c, p.epsH)
      }
    val withSelf = scores - u + (u -> 1.0) // Algorithm 5, line 10
    SimPushResult(u, withSelf, sg.L, sg.levelsPushed, sg.attentionCount, sg.numEdges, System.nanoTime() - t0)
  }
}
