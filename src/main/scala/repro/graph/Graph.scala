package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** A directed graph as a DataFrame of distinct edges `(src, dst)` with node
  * ids dense in `[0, numNodes)`. Spark builds the graph; every method, its
  * index builds included, runs on the driver CSR copy [[local]].
  */
final class Graph(
    val edges: DataFrame, // columns: src Long, dst Long; distinct
    val numNodes: Long,
) {

  lazy val numEdges: Long = edges.count()

  /** `(node, din)` for every node with at least one incoming edge; read only by simbench's `unpersist`. */
  lazy val inDeg: DataFrame =
    edges.groupBy(col("dst").as("node")).agg(count(lit(1)).as("din")).cache()

  /** `(node, dout)` for every node with at least one outgoing edge; read only by simbench's `unpersist`. */
  lazy val outDeg: DataFrame =
    edges.groupBy(col("src").as("node")).agg(count(lit(1)).as("dout")).cache()

  /** `(src, dst, din)`: edges with their destination's in-degree; read only by simbench's `unpersist`. */
  lazy val edgesWithInDeg: DataFrame = {
    val d = inDeg.withColumnRenamed("node", "dnode")
    edges
      .join(d, edges("dst") === d("dnode"))
      .select(col("src"), col("dst"), col("din"))
      .cache()
  }

  /** Driver-side CSR copy: runs every query, index build and walk
    * simulation. Materialized lazily; the graphs in this repro fit
    * comfortably. Its ids are `Int`, so `numNodes` must be too.
    */
  lazy val local: LocalGraph = {
    require(numNodes <= Int.MaxValue, s"numNodes = $numNodes does not fit the Int ids of LocalGraph")
    val es = edges.select(col("src").cast("int"), col("dst").cast("int"))
      .collect()
      .map(r => (r.getInt(0), r.getInt(1)))
    LocalGraph.fromEdges(numNodes.toInt, es)
  }

  /** Build the CSR [[local]], all that a push-based query reads (used before timing queries). */
  def warm(): Unit = { local; () }
}

object Graph {

  /** Wrap an edge DataFrame (columns `src`, `dst`); dedupes and drops
    * self-loops, which SimRank's walk formulation does not use meaningfully
    * and which the generators may emit. `edgesDf` carries its own session,
    * so `spark` is unused; it stays in the signature that simbench calls.
    */
  def fromEdges(spark: SparkSession, edgesDf: DataFrame, numNodes: Long): Graph = {
    val e = edgesDf
      .select(col("src").cast("long"), col("dst").cast("long"))
      .where(col("src") =!= col("dst"))
      .where(col("src") >= 0 && col("src") < numNodes && col("dst") >= 0 && col("dst") < numNodes)
      .distinct()
      .cache()
    new Graph(e, numNodes)
  }

  /** Build from a literal edge list — for unit tests and tiny examples. */
  def fromEdgeList(spark: SparkSession, n: Long, edges: Seq[(Long, Long)]): Graph = {
    import spark.implicits._
    fromEdges(spark, edges.toDF("src", "dst"), n)
  }
}
