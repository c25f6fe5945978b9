package repro.core

import repro.graph.{Graph, NodeScores}

/** Stage 3 of SimPush (Section 4.3, Algorithm 5): push the residues
  * `r^{(l)}(w) = h^{(l)}(u,w) * gamma^{(l)}(w)` of all attention nodes down
  * the levels of G along *out-going* edges, so that the mass arriving at
  * level 0 at node v estimates
  * `h^{(l)}(u,w) * gamma^{(l)}(w) * h^{(l)}(v,w)` summed over all w.
  *
  * Residues aggregated at the same node and level are combined and pushed
  * together; a residue is pushed only if `sqrt(c) * r >= epsH` (line 4),
  * which bounds the work by O(m log(1/eps)) (Lemma 7). Each level is one
  * transposed [[repro.graph.LocalGraph.push]] on the driver CSR, whose dense
  * accumulator also takes the next level's own residues.
  */
object ReversePush {

  /** @param residues initial residues keyed by (level, node), levels 1..L
    * @param epsH     push threshold; pass 0 for an exhaustive (exact) push
    * @return sparse SimRank estimates `\tilde s(u, v)` (missing = 0);
    *         the caller sets `\tilde s(u,u) = 1`
    */
  def run(g: Graph, residues: Map[(Int, Long), Double], L: Int, c: Double,
          epsH: Double): Map[Long, Double] = {
    val local = g.local
    val sqrtC = math.sqrt(c)
    val seeds = residues.groupMap(_._1._1) { case ((_, w), r) => w -> r }
      .map { case (l, rs) => l -> NodeScores.from(rs.toMap) }
    def seeded(l: Int): NodeScores = seeds.getOrElse(l, NodeScores.empty)
    // state: the residues at `level`, pushed one level down per iteration
    // and joined by that level's own residues; what reaches level 0 is the
    // score.
    var state = seeded(L)
    var level = L
    while (level >= 1) {
      // r flows from v' to each out-neighbor v with weight sqrt(c)/din(v).
      state = local.push(state.keep((_, r) => sqrtC * r >= epsH), c, transpose = true, plus = seeded(level - 1))
      level -= 1
    }
    state
  }
}
