package repro.eval

import repro.baselines._
import repro.core.{SimPush, SimPushParams}
import repro.eval.Datasets.BenchDataset

/** Shared benchmark harness: runs every method at its parameter settings
  * over a query set, measures wall-clock query time, AvgError@50 and
  * Precision@50 against exact ground truth, and the index cardinality
  * (our proxy for the paper's peak-memory comparison — JVM RSS is dominated
  * by Spark itself at this scale). One row per (dataset, method, setting),
  * averaged over queries — the shape of Figures 4-7.
  */
object Harness {

  final case class RunRow(
      dataset: String,
      method: String,
      setting: String,
      indexMillis: Long,
      indexRows: Long,
      avgQueryMillis: Double,
      avgErr: Double,
      avgPrec: Double,
      note: String = "",
  )

  val K = 50

  private def measure(ds: BenchDataset, truth: Array[Array[Double]], queries: Seq[Long],
                      method: String, setting: String, indexMillis: Long, indexRows: Long,
                      note: String = "")(run: Long => Map[Long, Double]): RunRow = {
    var ms = 0.0; var err = 0.0; var prec = 0.0
    queries.foreach { u =>
      val t0  = System.nanoTime()
      val est = run(u)
      ms += (System.nanoTime() - t0) / 1e6
      err  += Metrics.avgErrorAtK(truth(u.toInt), est, u.toInt, K)
      prec += Metrics.precisionAtK(truth(u.toInt), est, u.toInt, K)
    }
    val q = queries.size
    RunRow(ds.name, method, setting, indexMillis, indexRows, ms / q, err / q, prec / q, note)
  }

  // ------------------------------------------------------------------
  // Per-method sweeps. Settings ordered coarse -> fine, as in Section 5.1.
  // ------------------------------------------------------------------

  def simPush(ds: BenchDataset, truth: Array[Array[Double]], queries: Seq[Long],
              epss: Seq[Double]): Seq[RunRow] =
    epss.map { eps =>
      var lSum = 0.0; var attSum = 0.0
      val row = measure(ds, truth, queries, "SimPush", f"eps=$eps%.3g", 0, 0) { u =>
        val r = SimPush.singleSource(ds.graph, u, SimPushParams(eps))
        lSum += r.L; attSum += r.attentionCount
        r.scores
      }
      row.copy(note = f"L=${lSum / queries.size}%.1f att=${attSum / queries.size}%.0f")
    }

  def probeSim(ds: BenchDataset, truth: Array[Array[Double]], queries: Seq[Long],
               walkCounts: Seq[Int]): Seq[RunRow] =
    walkCounts.map { r =>
      measure(ds, truth, queries, "ProbeSim", s"R=$r", 0, 0) { u =>
        ProbeSim.query(ds.graph, u, ProbeSim.Params(numWalks = r))
      }
    }

  def sling(ds: BenchDataset, truth: Array[Array[Double]], queries: Seq[Long],
            thetas: Seq[Double]): Seq[RunRow] =
    thetas.map { theta =>
      val idx = Sling.buildIndex(ds.graph, theta, c = 0.6)
      measure(ds, truth, queries, "SLING", f"theta=$theta%.3g", idx.buildMillis, idx.rows) { u =>
        Sling.query(ds.graph, idx, u, c = 0.6)
      }
    }

  def prSim(ds: BenchDataset, truth: Array[Array[Double]], queries: Seq[Long],
            thetas: Seq[Double]): Seq[RunRow] =
    thetas.map { theta =>
      val j0  = math.sqrt(ds.graph.numNodes.toDouble).toInt
      val idx = PrSim.buildIndex(ds.graph, theta, c = 0.6, j0 = j0)
      measure(ds, truth, queries, "PRSim", f"theta=$theta%.3g", idx.buildMillis, idx.rows) { u =>
        PrSim.query(ds.graph, idx, u, c = 0.6)
      }
    }

  def reads(ds: BenchDataset, truth: Array[Array[Double]], queries: Seq[Long],
            rts: Seq[(Int, Int)]): Seq[RunRow] =
    rts.map { case (r, t) =>
      val idx = Reads.buildIndex(ds.graph, r, t, c = 0.6)
      measure(ds, truth, queries, "READS", s"r=$r,t=$t", idx.buildMillis, idx.rows) { u =>
        Reads.query(ds.graph, idx, u)
      }
    }

  def tsf(ds: BenchDataset, truth: Array[Array[Double]], queries: Seq[Long],
          rgRqs: Seq[(Int, Int)]): Seq[RunRow] =
    rgRqs.map { case (rg, rq) =>
      val idx = Tsf.buildIndex(ds.graph, rg, t = 10)
      measure(ds, truth, queries, "TSF", s"Rg=$rg,Rq=$rq", idx.buildMillis, idx.rows) { u =>
        Tsf.query(ds.graph, idx, u, rq, c = 0.6)
      }
    }

  def topSim(ds: BenchDataset, truth: Array[Array[Double]], queries: Seq[Long],
             tInvHs: Seq[(Int, Int)]): Seq[RunRow] =
    tInvHs.map { case (t, invH) =>
      measure(ds, truth, queries, "TopSim", s"T=$t,1/h=$invH", 0, 0) { u =>
        TopSim.query(ds.graph, u, TopSim.Params(T = t, invH = invH))
      }
    }

  /** The full Figure 4/5 sweep on one dataset. */
  def fullSweep(ds: BenchDataset, truth: Array[Array[Double]], queries: Seq[Long]): Seq[RunRow] =
    simPush(ds, truth, queries, Seq(0.1, 0.05, 0.02)) ++
      probeSim(ds, truth, queries, Seq(100, 400, 1600)) ++
      sling(ds, truth, queries, Seq(0.05, 0.01)) ++
      prSim(ds, truth, queries, Seq(0.05, 0.01)) ++
      reads(ds, truth, queries, Seq((100, 10), (500, 10))) ++
      tsf(ds, truth, queries, Seq((100, 20), (300, 40))) ++
      topSim(ds, truth, queries, Seq((3, 100), (3, 10000)))

  def header: String =
    f"| ${"dataset"}%-13s | ${"method"}%-8s | ${"setting"}%-14s | ${"idx ms"}%7s | ${"idx rows"}%9s | ${"query ms"}%9s | ${"AvgErr@50"}%10s | ${"Prec@50"}%8s | note |%n" +
      "|---------------|----------|----------------|---------|-----------|-----------|------------|----------|------|"

  def format(r: RunRow): String =
    f"| ${r.dataset}%-13s | ${r.method}%-8s | ${r.setting}%-14s | ${r.indexMillis}%7d | ${r.indexRows}%9d | ${r.avgQueryMillis}%9.1f | ${r.avgErr}%10.5f | ${r.avgPrec}%8.3f | ${r.note} |"
}
