package repro.graph

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestGraphs, TestRefs}
import repro.eval.Datasets

/** Graph wrapper + generators: structural invariants, and DuckDB-oracle
  * checks for the degree/statistics queries.
  */
class GraphSpec extends SparkSpec {

  test("fromEdgeList dedupes and drops self loops") {
    val g = Graph.fromEdgeList(spark, 4, Seq((0L, 1L), (0L, 1L), (2L, 2L), (1L, 3L)))
    assert(g.numEdges == 2)
    assert(g.local.outNeighbors(0) == Seq(1))
    assert(g.local.inDeg(2) == 0)
  }

  test("fromEdgeList rejects out-of-range ids by filtering") {
    val g = Graph.fromEdgeList(spark, 3, Seq((0L, 1L), (5L, 1L), (1L, -1L)))
    assert(g.numEdges == 1)
  }

  test("in/out degree DataFrames match DuckDB (oracle)") {
    val g = TestGraphs.directed(spark).toMap.apply("er60")
    Oracle.assertEquivalent(
      g.inDeg.select(col("node"), col("din").cast("double").as("din")),
      "SELECT dst AS node, CAST(count(*) AS DOUBLE) AS din FROM edges GROUP BY dst",
      "edges" -> g.edges)
    Oracle.assertEquivalent(
      g.outDeg.select(col("node"), col("dout").cast("double").as("dout")),
      "SELECT src AS node, CAST(count(*) AS DOUBLE) AS dout FROM edges GROUP BY src",
      "edges" -> g.edges)
  }

  test("edgesWithInDeg carries the destination in-degree (oracle)") {
    val g = TestGraphs.directed(spark).toMap.apply("pl80")
    Oracle.assertEquivalent(
      g.edgesWithInDeg.select(col("src"), col("dst"), col("din").cast("double").as("din")),
      """SELECT e.src AS src, e.dst AS dst, CAST(d.din AS DOUBLE) AS din
         FROM edges e JOIN (SELECT dst, count(*) AS din FROM edges GROUP BY dst) d
         ON e.dst = d.dst""",
      "edges" -> g.edges)
  }

  test("local CSR agrees with the DataFrame edges") {
    for ((name, g) <- TestGraphs.all(spark)) {
      val edges = g.edges.collect().map(r => (r.getLong(0).toInt, r.getLong(1).toInt)).toSet
      val lg    = g.local
      val fromCsr = (0 until lg.n).flatMap(v => lg.outNeighbors(v).map(d => (v, d))).toSet
      assert(fromCsr == edges, s"graph $name")
      for (v <- 0 until lg.n) {
        assert(lg.inDeg(v) == edges.count(_._2 == v), s"graph $name node $v")
        assert(TestRefs.outDeg(lg, v) == edges.count(_._1 == v), s"graph $name node $v")
      }
    }
  }

  test("symmetrize produces a symmetric edge set") {
    val g = TestGraphs.undirected(spark).head._2
    val edges = g.edges.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(edges.forall { case (s, d) => edges.contains((d, s)) })
  }

  test("generators are deterministic in the seed") {
    val a = GraphGen.powerLaw(spark, 100, 400, seed = 9).edges.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    val b = GraphGen.powerLaw(spark, 100, 400, seed = 9).edges.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(a == b)
  }

  // `Arrays.hashCode` of the sorted `src * n + dst` of every edge, with n and
  // m, as recorded on a 4-core host before the draws were pinned to 4 partitions.
  private val golden = Map(
    "in2004-lite"  -> (1400L, 17000L, -1186438747),
    "dblp-lite"    -> (2000L, 9212L, -1176017743),
    "pokec-lite"   -> (1600L, 30000L, -1428274971),
    "twitter-lite" -> (2400L, 84000L, 992951938),
    "lj-lite"      -> (2400L, 34000L, -2138638456),
    "uk-lite"      -> (3000L, 123000L, 270380113),
    "powerLaw(200, 1500, seed = 5)" -> (200L, 1500L, -1796677359),
    "erdosRenyi(60, 240, seed = 1)" -> (60L, 240L, 210637392),
  )

  private def edgeHash(lg: LocalGraph): Int = {
    val keys = (0 until lg.n).flatMap(v => lg.outNeighbors(v).map(v.toLong * lg.n + _)).toArray
    java.util.Arrays.sort(keys)
    java.util.Arrays.hashCode(keys)
  }

  test("generators draw the same graphs under leaf parallelism 2 and 4") {
    val key = "spark.sql.leafNodeDefaultParallelism"
    for (p <- Seq(2, 4)) {
      spark.conf.set(key, p.toLong)
      try {
        val graphs = Datasets.extended(spark).map(d => d.name -> d.graph) ++ Seq(
          "powerLaw(200, 1500, seed = 5)" -> GraphGen.powerLaw(spark, 200, 1500, seed = 5),
          "erdosRenyi(60, 240, seed = 1)" -> GraphGen.erdosRenyi(spark, 60, 240, seed = 1))
        val got = graphs.map { case (name, g) => name -> (g.numNodes, g.numEdges, edgeHash(g.local)) }.toMap
        assert(got == golden, s"leaf parallelism $p")
      } finally spark.conf.unset(key)
    }
  }

  test("powerLaw hits the requested edge count approximately") {
    val g = GraphGen.powerLaw(spark, 200, 1500, seed = 5)
    assert(g.numEdges >= 1100 && g.numEdges <= 1500, s"got ${g.numEdges}")
  }

  test("powerLaw degree distribution is heavy-tailed") {
    val g   = GraphGen.powerLaw(spark, 400, 4000, alpha = 2.5, seed = 6)
    val maxDeg = g.inDeg.agg(org.apache.spark.sql.functions.max(col("din"))).collect()(0).getLong(0)
    val avg = g.numEdges.toDouble / g.numNodes
    assert(maxDeg > 5 * avg, s"max in-degree $maxDeg vs avg $avg — not heavy tailed")
  }

  test("deterministic toy graphs have the expected shape") {
    val cyc = GraphGen.cycle(spark, 5)
    assert(cyc.numEdges == 5)
    assert((0 until 5).forall(v => cyc.local.inDeg(v) == 1 && TestRefs.outDeg(cyc.local, v) == 1))
    val st = GraphGen.starInward(spark, 6)
    assert(st.local.inDeg(0) == 5 && (1 until 6).forall(st.local.inDeg(_) == 0))
    val comp = GraphGen.complete(spark, 4)
    assert(comp.numEdges == 12)
    val p = GraphGen.path(spark, 4)
    assert(p.numEdges == 3 && p.local.inDeg(0) == 0)
  }

  test("erdosRenyi respects node range") {
    val g = GraphGen.erdosRenyi(spark, 50, 300, seed = 4)
    val ok = g.edges.where(col("src") < 0 || col("src") >= 50 || col("dst") < 0 || col("dst") >= 50).count()
    assert(ok == 0)
  }
}
