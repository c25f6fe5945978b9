package repro.baselines

/** Per-walk seeding for the walk-based methods: `mix(seed, id)` seeds walk
  * `id` of ProbeSim, Eta, READS, TSF and Monte-Carlo SimRank, so a walk does
  * not depend on where (driver or executor) or in which order it is drawn.
  */
object RandomWalks {

  /** SplitMix64 finalizer — decorrelates per-walk seeds. */
  def mix(seed: Long, id: Long): Long = {
    var z = seed + id * 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }
}
