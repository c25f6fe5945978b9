package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType

/** Synthetic graph generators.
  *
  * The paper evaluates on 9 real graphs (Table 4: In-2004, DBLP, Pokec,
  * LiveJournal, IT-2004, Twitter, Friendster, UK, ClueWeb). Those are not
  * available offline, so the benchmarks use scaled-down synthetic stand-ins
  * with matching *type* (web vs social vs collaboration; directed vs
  * undirected) and matching average degree, generated here. The generators
  * are deterministic in `(n, seed)` — see DESIGN.md for the substitution
  * rationale.
  */
object GraphGen {

  /** Partitions of every draw. `rand(seed)` seeds each partition with
    * `seed + partitionIndex`, so a fixed count keeps the drawn edges, and
    * every stand-in, independent of the host's core count.
    */
  private val DrawPartitions = 4

  /** Power-rank draw in [0, n): `floor(n * u^q)` puts probability
    * `((k+1)^{1/q} - k^{1/q}) / n^{1/q}` on rank `k` — a heavy-tailed
    * profile whose head mass `n^{-1/q}` stays bounded, so endpoint draws do
    * not collapse under edge dedup the way a raw Zipf inverse-CDF does.
    */
  private def powerRank(n: Long, q: Double, r: org.apache.spark.sql.Column) =
    least(lit(n - 1), floor(lit(n.toDouble) * pow(r, lit(q))).cast(LongType))

  /** Heavy-tailed directed graph à la Chung–Lu: both endpoints drawn from a
    * power-rank distribution, the destination side decorrelated through an
    * affine permutation so hubs on the two sides are distinct nodes.
    * Oversamples adaptively until the deduped edge count reaches the target.
    *
    * @param n      number of nodes
    * @param m      target number of directed edges (after dedup, approximate)
    * @param alpha  skew exponent `q` of the rank draw (higher = more skewed;
    *               expected degree of rank-k nodes decays like k^{1/q - 1})
    */
  def powerLaw(spark: SparkSession, n: Long, m: Long, alpha: Double = 2.2,
               seed: Long = 7, undirected: Boolean = false): Graph = {
    val a = coprimeOf(n) // affine permutation decorrelates hub identities
    def generate(draws: Long): Graph = {
      val rows = spark.range(0, draws, 1, DrawPartitions).select(
        powerRank(n, alpha, rand(seed)).as("srcRank"),
        powerRank(n, alpha, rand(seed + 1)).as("dstRank"),
      )
      val e = rows.select(
        col("srcRank").as("src"),
        ((col("dstRank") * a + 17L) % n).as("dst"),
      )
      Graph.fromEdges(spark, e, n)
    }
    var draws   = (m * 1.4).toLong
    var g       = generate(draws)
    var attempt = 0
    while (g.numEdges < (m * 0.92).toLong && attempt < 4) {
      draws *= 2; g = generate(draws); attempt += 1
    }
    if (undirected) symmetrize(spark, g) else trimTo(spark, g, m)
  }

  /** Erdős–Rényi G(n, m): endpoints uniform. */
  def erdosRenyi(spark: SparkSession, n: Long, m: Long, seed: Long = 11,
                 undirected: Boolean = false): Graph = {
    val draws = (m * 1.3).toLong
    val e = spark.range(0, draws, 1, DrawPartitions).select(
      (rand(seed) * n).cast(LongType).as("src"),
      (rand(seed + 1) * n).cast(LongType).as("dst"),
    )
    val g = Graph.fromEdges(spark, e, n)
    if (undirected) symmetrize(spark, g) else trimTo(spark, g, m)
  }

  /** Make a directed graph undirected by adding every reverse edge —
    * the paper's convention for undirected inputs (Section 2.1).
    */
  def symmetrize(spark: SparkSession, g: Graph): Graph = {
    val rev = g.edges.select(col("dst").as("src"), col("src").as("dst"))
    Graph.fromEdges(spark, g.edges.unionByName(rev), g.numNodes)
  }

  /** Keep at most `m` edges (deterministic order) so dataset sizes are stable. */
  private def trimTo(spark: SparkSession, g: Graph, m: Long): Graph = {
    if (g.numEdges <= m) g
    else Graph.fromEdges(spark, g.edges.orderBy("src", "dst").limit(m.toInt), g.numNodes)
  }

  private def coprimeOf(n: Long): Long = {
    var a = math.max(3L, n / 3 | 1L)
    while (gcd(a, n) != 1) a += 2
    a
  }
  @annotation.tailrec private def gcd(a: Long, b: Long): Long = if (b == 0) a else gcd(b, a % b)

  // ------------------------------------------------------------------
  // Deterministic toy graphs for unit tests.
  // ------------------------------------------------------------------

  /** Directed cycle 0 -> 1 -> ... -> n-1 -> 0. */
  def cycle(spark: SparkSession, n: Int): Graph =
    Graph.fromEdgeList(spark, n, (0 until n).map(i => (i.toLong, ((i + 1) % n).toLong)))

  /** Star: leaves 1..n-1 all point at hub 0. */
  def starInward(spark: SparkSession, n: Int): Graph =
    Graph.fromEdgeList(spark, n, (1 until n).map(i => (i.toLong, 0L)))

  /** Complete directed graph (no self loops) — dense worst case. */
  def complete(spark: SparkSession, n: Int): Graph =
    Graph.fromEdgeList(spark, n,
      for { i <- 0 until n; j <- 0 until n if i != j } yield (i.toLong, j.toLong))

  /** Directed path 0 -> 1 -> ... -> n-1. */
  def path(spark: SparkSession, n: Int): Graph =
    Graph.fromEdgeList(spark, n, (0 until n - 1).map(i => (i.toLong, (i + 1).toLong)))
}
