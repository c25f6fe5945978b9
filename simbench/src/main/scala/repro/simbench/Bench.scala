package repro.simbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path, Paths}
import java.util.concurrent.Executors

import scala.collection.mutable
import scala.concurrent.duration.Duration
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

import org.apache.spark.ListenerBusDrain
import org.apache.spark.sql.SparkSession
import repro.core.{LastMeeting, ReversePush, SimPush, SimPushParams, SourceGraph, SourcePush}
import repro.eval.{Datasets, Metrics}
import repro.graph.{Graph, LocalGraph}

/** The SimPush query benchmark.
  *
  * One closed-loop client on one SparkSession: the next query is issued when
  * the previous answer has returned. `--trace 0` times `SimPush.singleSource`
  * and reports the end-to-end metrics. `--trace 1` runs every query twice,
  * once through `SimPush.singleSource` and once as the same composition of
  * layer calls with a span around each, and reports the per-layer metrics.
  * Every answer of either run is checked against exact SimRank.
  *
  * Usage: `Bench --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>`
  */
object Bench {

  /** Fixed so that the Spark plan, and with it the timing, does not depend
    * on the entry point or the machine's core count.
    */
  val ShufflePartitions = 4
  val SetupReps         = 3
  val WarmupQueries     = 1
  val QueryPool         = 64
  val K                 = 50
  /** Composition and `singleSource` must agree this closely. */
  val SameTol           = 1e-12
  /** A half-to-half change of the median latency beyond this is flagged. */
  val DriftFlagPct      = 10.0
  val WarmupChurnSeed   = 0x5EEDL

  final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean, out: Path)

  /** One answered query: a warm-up, a measured query, or, with tracing, a
    * measured untraced/traced pair on the same node and graph.
    */
  final class Query(val qid: String, val u: Long) {
    var latencyMs      = 0.0
    var tracedMs       = Double.NaN
    var gcMs           = 0.0
    var cpuMs          = 0.0
    var tracedGcMs     = Double.NaN
    var scores         = Map.empty[Long, Double]
    var tracedScores   = Option.empty[Map[Long, Double]]
    var sg             = Option.empty[SourceGraph]
    var local          = Option.empty[LocalGraph]
    var residues       = 0
    /** Ground truth for this answer's graph may be cached on disk. */
    var cacheTruth     = false
    val failures       = mutable.ArrayBuffer.empty[String]
    var avgErr         = Double.NaN
    var prec           = Double.NaN
    var maxErr         = Double.NaN
  }

  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    val secs = need("seconds").toInt
    require(secs >= 1, s"--seconds must be >= 1, got $secs")
    Opts(need("workload"), need("seed").toLong, secs, trace, Paths.get(kv.getOrElse("out", "simbench/out")))
  }

  def main(args: Array[String]): Unit = {
    val code =
      try {
        val o = parse(args)
        val w = Workloads.byName(o.workload).getOrElse(throw new IllegalArgumentException(
          s"unknown workload ${o.workload}; known: ${Workloads.all.map(_.name).mkString(", ")}"))
        val spark = session(o.out)
        try new Run(spark, w, o).execute() finally spark.stop()
      } catch {
        case e: IllegalArgumentException =>
          Console.err.println(s"simbench: ${e.getMessage}"); 2
        case NonFatal(e) =>
          e.printStackTrace(); 1
      }
    sys.exit(code)
  }

  def session(out: Path): SparkSession = {
    val local = out.resolve("spark-local").toAbsolutePath
    Files.createDirectories(local)
    SparkSession.builder()
      .master(s"local[${Runtime.getRuntime.availableProcessors}]")
      .appName("simbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L) // as repro.jobs.Jobs.session
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", local.toString)
      .config("spark.sql.warehouse.dir", out.resolve("spark-warehouse").toAbsolutePath.toString)
      .getOrCreate()
  }

  /** CPU time of the whole JVM (all Spark and driver threads), in ns. */
  def processCpuNs(): Long =
    ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean].getProcessCpuTime

  def gcMillis(): Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum

  /** Heap still in use after full collections, in MB. */
  def retainedHeapMb(): Double = {
    (1 to 3).foreach { _ => System.gc(); Thread.sleep(50) }
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }

  def unpersist(g: Graph): Unit = {
    g.edgesWithInDeg.unpersist(true); g.inDeg.unpersist(true); g.outDeg.unpersist(true); g.edges.unpersist(true)
  }

  /** The layer composition `SimPush.singleSource` runs, with a span around
    * each call; must give the same scores (checked per query).
    */
  def tracedQuery(t: Tracer, spark: SparkSession, g: Graph, p: SimPushParams, q: Query): Map[Long, Double] = {
    val sc  = spark.sparkContext
    val u   = q.u
    val qid = q.qid
    sc.setLocalProperty(SparkCounters.QueryKey, qid)
    sc.setLocalProperty(SparkCounters.LayerKey, "source_push")
    val sg = t.span("source_push", qid)(SourcePush.run(g, u, p.c, p.epsH, p.delta, p.maxWalks, p.seed))
    q.sg = Some(sg)
    val scores =
      if (sg.L == 0 || sg.attentionCount == 0) Map.empty[Long, Double]
      else {
        sc.setLocalProperty(SparkCounters.LayerKey, "last_meeting")
        val hp  = t.span("last_meeting.hitting", qid)(LastMeeting.hittingProbs(sg, p.c, g.local))
        val gm  = t.span("last_meeting.gamma", qid)(LastMeeting.gammas(sg, hp))
        val res = gm.map { case ((l, w), gamma) => (l, w) -> sg.h(l)(w) * gamma }
        q.residues = res.size
        sc.setLocalProperty(SparkCounters.LayerKey, "reverse_push")
        t.span("reverse_push", qid)(ReversePush.run(g, res, sg.L, p.c, p.epsH))
      }
    clearTags(sc)
    scores - u + (u -> 1.0)
  }

  private def clearTags(sc: org.apache.spark.SparkContext): Unit = {
    sc.setLocalProperty(SparkCounters.LayerKey, null); sc.setLocalProperty(SparkCounters.QueryKey, null)
  }

  /** Graph build, CSR and cache warm-up, each tagged as its own layer. */
  def buildGraph(t: Option[Tracer], spark: SparkSession, qid: String)(mk: => Graph): Graph = {
    val sc = spark.sparkContext
    def layer[T](name: String)(body: => T): T = t match {
      case Some(tr) => sc.setLocalProperty(SparkCounters.QueryKey, qid); sc.setLocalProperty(SparkCounters.LayerKey, name); tr.span(name, qid)(body)
      case None     => body
    }
    val g = layer("graph.build") { val g = mk; g.numEdges; g }
    layer("graph.csr")(g.local)
    layer("graph.warm")(g.warm())
    clearTags(sc)
    g
  }
}

/** One benchmark run: set-up, warm-up, the measured closed loop, then
  * ground truth, the correctness gate and the metrics.
  */
final class Run(spark: SparkSession, w: Workload, o: Bench.Opts) {
  import Bench._

  private val p        = SimPushParams(w.eps)
  private val tracer   = new Tracer
  private val counters = new SparkCounters
  private val warmSeed = o.seed ^ 0x5DEECE66DL
  private val epochMs0 = System.currentTimeMillis()
  private val nano0    = System.nanoTime()
  private val tr       = if (o.trace) Some(tracer) else None
  private val truthMs  = mutable.ArrayBuffer.empty[Double]
  private var truthHits = 0
  /** Wall seconds per phase of the run, from JVM start; recorded, not a metric. */
  private val phases   = mutable.LinkedHashMap[String, Any](
    "jvm_and_session" -> (epochMs0 - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3)
  private var phaseT0  = System.nanoTime()
  private def phase(name: String): Unit = {
    val t = System.nanoTime(); phases(name) = (t - phaseT0) / 1e9; phaseT0 = t
  }

  private def msToNs(ms: Long): Long = nano0 + (ms - epochMs0) * 1000000L

  private def edgeDf(edges: Array[(Int, Int)]) = {
    import spark.implicits._
    edges.iterator.map { case (s, d) => (s.toLong, d.toLong) }.toSeq.toDF("src", "dst")
  }

  def execute(): Int = {
    if (o.trace) spark.sparkContext.addSparkListener(counters)
    Files.createDirectories(o.out)

    // --- set-up: build and warm the workload's graph several times; the
    // first build runs in a cold JVM, the median is reported ---
    val setups = (1 to SetupReps).map { i =>
      spark.catalog.clearCache()
      val t0 = System.nanoTime()
      val g  = buildGraph(tr, spark, s"setup-$i")(w.build(spark))
      ((System.nanoTime() - t0) / 1e9, g)
    }
    val base     = setups.last._2
    val n        = base.numNodes.toInt
    val baseM    = base.numEdges
    val queries  = Datasets.queryNodes(base, QueryPool, o.seed)
    val warmups  = Datasets.queryNodes(base, QueryPool + WarmupQueries, warmSeed).filterNot(queries.toSet).take(WarmupQueries)
    val baseEdges: Array[(Int, Int)] =
      if (w.churn) Truth.edgesOf(base.local).map(e => ((e / n).toInt, (e % n).toInt)) else Array.empty
    phase("setup")

    // --- warm-up: untimed, on nodes disjoint from the measured ones. The
    // answers go through the correctness gate and count towards the accuracy
    // metrics like every other answer. The warm-up churn batch does not
    // depend on the seed, so its ground truth is computed once per checkout.
    val warm = warmups.zipWithIndex.map { case (u, i) =>
      val q = new Query(s"w$i", u)
      val e = if (w.churn) Churn.step(baseEdges, n, Churn.mix(WarmupChurnSeed, i)) else baseEdges
      try runUntraced(q, base, e, n)
      catch { case NonFatal(ex) => q.failures += s"threw ${ex.getClass.getSimpleName}: ${ex.getMessage}" }
      q.cacheTruth = true
      q
    }
    phase("warmup")

    // --- measured phase: one closed-loop client ---
    val done  = mutable.ArrayBuffer.empty[Query]
    var edges = baseEdges

    // Issue the next query only if a typical one still ends before the
    // deadline, so a run lasts `seconds`, not `seconds` plus one query.
    val tStart  = System.nanoTime()
    val deadline = tStart + o.seconds * 1000000000L
    val iterNs  = mutable.ArrayBuffer.empty[Double]
    var i = 0
    while (i == 0 || System.nanoTime() + Stats.median(iterNs.toSeq) <= deadline) {
      val it0 = System.nanoTime()
      val u = queries(i % queries.size)
      val q = new Query(s"q$i", u)
      if (w.churn) edges = Churn.step(edges, n, Churn.mix(o.seed, i))
      try {
        val tracedFirst = o.trace && i % 2 == 1
        if (tracedFirst) runTraced(q, base, edges, n)
        runUntraced(q, base, edges, n)
        if (o.trace && !tracedFirst) runTraced(q, base, edges, n)
      } catch {
        case NonFatal(e) => q.failures += s"threw ${e.getClass.getSimpleName}: ${e.getMessage}"
      }
      done += q
      iterNs += (System.nanoTime() - it0).toDouble
      i += 1
    }
    val wallS = (System.nanoTime() - tStart) / 1e9
    phase("measure")
    val heapMb = retainedHeapMb()

    // --- ground truth and the correctness gate ---
    val answers = warm ++ done
    val truthRows: Map[String, Array[Double]] = groundTruth(answers, base)
    answers.foreach { q =>
      truthRows.get(q.qid) match {
        case None => if (q.failures.isEmpty) q.failures += "no ground truth"
        case Some(row) if q.failures.isEmpty =>
          val u = q.u.toInt
          q.failures ++= Gate.check(row, q.scores, u, w.eps, Truth.slack(p.c))
          q.tracedScores.foreach { ts =>
            q.failures ++= Gate.check(row, ts, u, w.eps, Truth.slack(p.c)).map("traced: " + _)
            val d = Gate.maxDiff(ts, q.scores)
            if (!(d <= SameTol)) q.failures += f"traced composition differs from singleSource by $d%.3e"
          }
          q.avgErr = Metrics.avgErrorAtK(row, q.scores, u, K)
          q.prec   = Metrics.precisionAtK(row, q.scores, u, K)
          q.maxErr = Metrics.maxAbsError(row, q.scores, u)
        case _ =>
      }
    }
    if (o.trace) { ListenerBusDrain(spark.sparkContext); addWalkSpans(done.toSeq) }
    phase("truth_and_gate")

    report(warm, done.toSeq, setups.map(_._1), wallS, heapMb, n, baseM, queries, warmups)
  }

  private def runUntraced(q: Query, base: Graph, edges: Array[(Int, Int)], n: Int): Unit = {
    val gc0 = gcMillis()
    val c0  = processCpuNs()
    val t0  = System.nanoTime()
    val g   = if (w.churn) buildGraph(None, spark, q.qid)(Graph.fromEdges(spark, edgeDf(edges), n)) else base
    q.scores = SimPush.singleSource(g, q.u, p).scores
    q.latencyMs = (System.nanoTime() - t0) / 1e6
    q.cpuMs = (processCpuNs() - c0) / 1e6
    q.gcMs = (gcMillis() - gc0).toDouble
    if (w.churn) { q.local = Some(g.local); unpersist(g) }
  }

  private def runTraced(q: Query, base: Graph, edges: Array[(Int, Int)], n: Int): Unit = {
    val gc0 = gcMillis()
    val t0  = System.nanoTime()
    val ts = tracer.span("query", q.qid) {
      val g = if (w.churn) buildGraph(tr, spark, q.qid)(Graph.fromEdges(spark, edgeDf(edges), n)) else base
      val s = tracedQuery(tracer, spark, g, p, q)
      if (w.churn) { q.local = Some(g.local); unpersist(g) }
      s
    }
    q.tracedMs = (System.nanoTime() - t0) / 1e6
    q.tracedScores = Some(ts)
    q.tracedGcMs = (gcMillis() - gc0).toDouble
  }

  /** Exact rows for every answer, one all-pairs computation per distinct
    * graph, in parallel. Graphs that recur across runs (the static graphs
    * and the warm-up churn batch) go through the on-disk cache.
    */
  private def groundTruth(qs: Seq[Query], base: Graph): Map[String, Array[Double]] = {
    val dir = o.out.resolve("truth")
    val graphs = qs.groupBy(q => q.local.getOrElse(base.local)).toSeq
    val pool = Executors.newFixedThreadPool(Runtime.getRuntime.availableProcessors)
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
    try {
      val fs = graphs.map { case (lg, gqs) =>
        Future {
          val cache = gqs.exists(_.cacheTruth) || !w.churn
          val hit   = cache && Files.isRegularFile(dir.resolve(Truth.key(lg, p.c) + ".bin"))
          val t0    = System.nanoTime()
          val s     = if (cache) Truth.cached(lg, p.c, dir) else Truth.compute(lg, p.c)
          val t1    = System.nanoTime()
          synchronized {
            truthMs += (t1 - t0) / 1e6; if (hit) truthHits += 1
            tracer.add("eval.truth", gqs.head.qid, -1, t0, t1)
          }
          gqs.map(q => q.qid -> s(q.u.toInt))
        }
      }
      Await.result(Future.sequence(fs), Duration.Inf).flatten.toMap
    } finally pool.shutdown()
  }

  /** Walk executions happen inside `SourcePush.run`; the listener saw their
    * start and end, which become child spans of the `source_push` span.
    */
  private def addWalkSpans(qs: Seq[Query]): Unit = {
    val sp = tracer.spans.filter(_.name == "source_push").map(s => s.qid -> s).toMap
    qs.foreach { q =>
      sp.get(q.qid).foreach { s =>
        counters.walkIntervalsMs(q.qid).foreach { case (a, b) =>
          tracer.add(SparkCounters.WalksLayer, q.qid, s.id, math.max(s.startNs, msToNs(a)), math.min(s.endNs, msToNs(b)))
        }
      }
    }
  }

  // ------------------------------------------------------------------
  // Metrics and the result record.
  // ------------------------------------------------------------------

  private def report(warm: Seq[Query], qs: Seq[Query], setupS: Seq[Double], wallS: Double, heapMb: Double,
                     n: Int, m: Long, queries: Seq[Long], warmups: Seq[Long]): Int = {
    val answers   = warm ++ qs
    val attempted = answers.size
    val failed    = answers.count(_.failures.nonEmpty)
    val ok        = answers.filter(_.failures.isEmpty)
    val lat       = qs.map(_.latencyMs)
    val half      = lat.size / 2
    val driftPct  =
      if (half >= 1) 100 * (Stats.median(lat.drop(lat.size - half)) - Stats.median(lat.take(half))) / Stats.median(lat.take(half))
      else 0.0
    val tail = Stats.tail(lat)

    def metric(v: Double, unit: String) = mutable.LinkedHashMap[String, Any]("value" -> v, "unit" -> unit)
    val metrics = mutable.LinkedHashMap.empty[String, mutable.LinkedHashMap[String, Any]]
    if (!o.trace) {
      metrics("setup_s")          = metric(Stats.median(setupS), "s")
      metrics("query_p50_ms")     = metric(Stats.median(lat), "ms")
      metrics("query_tail_ms")    = metric(tail.value, "ms")
      metrics("queries_per_s")    = metric(qs.count(_.failures.isEmpty) / wallS, "1/s")
      metrics("avg_err_at_50")    = metric(meanOf(ok.map(_.avgErr)), "abs")
      metrics("prec_at_50")       = metric(meanOf(ok.map(_.prec)), "ratio")
      metrics("max_abs_err")      = metric(if (ok.isEmpty) Double.NaN else ok.map(_.maxErr).max, "abs")
      metrics("correct_frac")     = metric((attempted - failed).toDouble / math.max(1, attempted), "ratio")
      metrics("heap_retained_mb") = metric(heapMb, "MB")
    } else layerMetrics(qs, driftPct).foreach { case (k, (v, u)) => metrics(k) = metric(v, u) }

    val sc = spark.sparkContext
    val record = mutable.LinkedHashMap[String, Any](
      "workload"  -> w.name,
      "why"       -> w.why,
      "trace"     -> o.trace,
      "env"       -> mutable.LinkedHashMap[String, Any](
        "git_sha"          -> sys.env.getOrElse("SIMBENCH_GIT_SHA", "unknown"),
        "source_digest"    -> sys.env.getOrElse("SIMBENCH_SOURCE_DIGEST", "unknown"),
        "nproc"            -> Runtime.getRuntime.availableProcessors,
        "SPARK_GRAFT_CPUS" -> sys.env.get("SPARK_GRAFT_CPUS"),
        "driver_heap_max_mb" -> Runtime.getRuntime.maxMemory / 1048576,
        "java"             -> System.getProperty("java.version"),
        "spark"            -> spark.version,
      ),
      "spark_conf" -> scala.collection.immutable.TreeMap(sc.getConf.getAll.toSeq.filterNot { case (k, _) => VolatileConf(k) }: _*),
      "dataset"   -> mutable.LinkedHashMap[String, Any]("name" -> w.dataset, "n" -> n, "m" -> m),
      "params"    -> mutable.LinkedHashMap[String, Any](
        "eps" -> p.eps, "delta" -> p.delta, "c" -> p.c, "max_walks" -> p.maxWalks, "walk_seed" -> p.seed,
        "eps_h" -> p.epsH, "l_star" -> p.lStar, "walk_budget" -> SourcePush.walkBudget(p.epsH, p.c, p.delta)),
      "workload_seed" -> o.seed,
      "warmup_seed"   -> warmSeed,
      "seconds"       -> o.seconds,
      "query_ids"     -> queries,
      "warmup_ids"    -> warmups,
      "setup_s"       -> setupS,
      "truth"         -> mutable.LinkedHashMap[String, Any]("iters" -> Truth.Iters, "cache_hits" -> truthHits, "ms" -> truthMs.toSeq),
      "latency_tail"  -> mutable.LinkedHashMap[String, Any](
        "value_ms" -> tail.value, "percentile" -> tail.percentile, "samples" -> tail.n, "rule_met" -> tail.ruleMet),
      "drift"         -> mutable.LinkedHashMap[String, Any](
        "second_vs_first_half_pct" -> driftPct, "flagged" -> (math.abs(driftPct) > DriftFlagPct)),
      "failed_frac"   -> failed.toDouble / math.max(1, attempted),
      "phases_s"      -> phases,
      "warmup_queries" -> warm.map(queryRecord),
      "queries"       -> qs.map(queryRecord),
      "metrics"       -> metrics,
    )
    if (o.trace) record("spans") = tracer.spans.map(s => mutable.LinkedHashMap[String, Any](
      "id" -> s.id, "name" -> s.name, "qid" -> s.qid, "parent" -> s.parent,
      "start_ms" -> (s.startNs - nano0) / 1e6, "end_ms" -> (s.endNs - nano0) / 1e6,
      "self_ms" -> Trace.selfNs(s, tracer.spans) / 1e6))

    val file = o.out.resolve(s"result-${w.name}-seed${o.seed}-trace${if (o.trace) 1 else 0}.json")
    Files.writeString(file, Json(record))

    println(s"simbench ${w.name}: ${w.dataset} n=$n m=$m eps=${w.eps} seed=${o.seed} trace=${o.trace}")
    println(f"  answers attempted=$attempted (warm-up ${warm.size}) failed=$failed measured=${qs.size} in ${wallS}%.1fs" +
      f" tail=p${tail.percentile}%.1f over ${tail.n} samples${if (tail.ruleMet) "" else " (fewer than 11: max)"}")
    println(f"  drift second-vs-first half: $driftPct%+.1f%%${if (math.abs(driftPct) > DriftFlagPct) "  FLAGGED" else ""}")
    answers.filter(_.failures.nonEmpty).foreach(q => println(s"  FAILED ${q.qid} u=${q.u}: ${q.failures.take(3).mkString("; ")}"))
    metrics.foreach { case (k, v) => println(f"  $k%-32s ${v("value")}%s ${v("unit")}%s") }
    println(s"  record: $file")
    val correct = attempted >= 1 && failed == 0
    println(Json(mutable.LinkedHashMap[String, Any](
      "correct" -> correct, "attempted" -> attempted, "failed" -> failed, "metrics" -> metrics)))
    if (correct) 0 else 1
  }

  private val VolatileConf = Set("spark.app.id", "spark.app.startTime", "spark.driver.port",
    "spark.app.submitTime", "spark.executor.id", "spark.local.dir", "spark.sql.warehouse.dir")

  private def meanOf(xs: Seq[Double]): Double = if (xs.isEmpty) Double.NaN else Stats.mean(xs)

  private def queryRecord(q: Query): mutable.LinkedHashMap[String, Any] = mutable.LinkedHashMap[String, Any](
    "qid" -> q.qid, "u" -> q.u, "latency_ms" -> q.latencyMs, "traced_ms" -> q.tracedMs, "cpu_ms" -> q.cpuMs, "gc_ms" -> q.gcMs, "traced_gc_ms" -> q.tracedGcMs,
    "L" -> q.sg.map(_.L), "attention" -> q.sg.map(_.attentionCount), "walks" -> q.sg.map(_.numWalks),
    "avg_err_at_50" -> q.avgErr, "prec_at_50" -> q.prec, "max_abs_err" -> q.maxErr,
    "ok" -> q.failures.isEmpty, "failures" -> q.failures.toSeq)

  /** Per-layer metrics of a traced run: `_ms` at p50 and tail, counts and
    * bytes as the median per query (per graph for the graph layer).
    */
  private def layerMetrics(qs: Seq[Query], driftPct: Double): Seq[(String, (Double, String))] = {
    val spans = tracer.spans
    val out   = mutable.ArrayBuffer.empty[(String, (Double, String))]
    def med(xs: Seq[Double]) = if (xs.isEmpty) 0.0 else Stats.median(xs)
    def times(name: String, xs: Seq[Double]): Unit = {
      out += s"$name.p50" -> (med(xs), "ms")
      out += s"$name.tail" -> ((if (xs.isEmpty) 0.0 else Stats.tail(xs).value), "ms")
    }
    def perQuery(name: String, self: Boolean = false, qids: Seq[String] = Nil): Seq[Double] =
      spans.filter(s => s.name == name && (qids.isEmpty || qids.contains(s.qid))).groupBy(_.qid).values.map { ss =>
        ss.map(s => if (self) Trace.selfNs(s, spans) else s.durNs).sum / 1e6
      }.toSeq
    def count(name: String, xs: Seq[Double], unit: String = "count"): Unit = out += name -> (med(xs), unit)
    val sgs = qs.flatMap(_.sg)
    val budget = SourcePush.walkBudget(p.epsH, p.c, p.delta).toDouble
    def sparkCounts(layers: Seq[String], prefix: String, qids: Seq[String]): Unit = {
      val tot = qids.map(id => counters.totals(id).filter { case (l, _) => layers.contains(l) }.values)
      count(s"$prefix.spark_jobs", tot.map(_.map(_.jobs).sum.toDouble))
      count(s"$prefix.spark_tasks", tot.map(_.map(_.tasks).sum.toDouble))
      count(s"$prefix.shuffle_bytes", tot.map(_.map(_.shuffleBytes).sum.toDouble), "bytes")
    }
    val qids      = qs.map(_.qid)
    // The graph layer is paid per query on a churning graph, else in set-up.
    val graphQids =
      if (w.churn) qids else spans.filter(_.name == "graph.build").map(_.qid).distinct

    times("graph.build_ms", perQuery("graph.build", qids = graphQids))
    times("graph.csr_ms", perQuery("graph.csr", qids = graphQids))
    times("graph.warm_ms", perQuery("graph.warm", qids = graphQids))
    sparkCounts(Seq("graph.build", "graph.csr", "graph.warm"), "graph", graphQids)

    times("walks.ms", perQuery(SparkCounters.WalksLayer))
    count("walks.count", sgs.map(_.numWalks.toDouble))
    count("walks.budget", Seq(budget))
    count("walks.budget_ratio", sgs.map(_.numWalks / budget), "ratio")
    sparkCounts(Seq(SparkCounters.WalksLayer), "walks", qids)

    times("source_push.self_ms", perQuery("source_push", self = true))
    count("source_push.levels", sgs.map(_.L.toDouble))
    count("source_push.lstar", Seq(p.lStar.toDouble))
    count("source_push.frontier_nodes", sgs.map(sg => sg.h.drop(1).map(_.size).sum.toDouble))
    count("source_push.gu_edges", sgs.map(_.numEdges.toDouble))
    count("source_push.attention", sgs.map(_.attentionCount.toDouble))
    sparkCounts(Seq("source_push"), "source_push", qids)

    times("last_meeting.hitting_ms", perQuery("last_meeting.hitting"))
    times("last_meeting.gamma_ms", perQuery("last_meeting.gamma"))
    count("last_meeting.residues", qs.map(_.residues.toDouble))

    times("reverse_push.ms", perQuery("reverse_push"))
    count("reverse_push.scores", qs.flatMap(_.tracedScores).map(_.size.toDouble))
    sparkCounts(Seq("reverse_push"), "reverse_push", qids)

    times("eval.truth_ms", truthMs.toSeq)
    count("eval.truth_cache_hits", Seq(truthHits.toDouble))

    val traced   = qs.map(_.tracedMs).filterNot(_.isNaN)
    val untraced = qs.map(_.latencyMs)
    times("query.gc_ms", qs.map(_.tracedGcMs).filterNot(_.isNaN))
    out += "query.traced_ms.p50" -> (med(traced), "ms")
    out += "query.untraced_ms.p50" -> (med(untraced), "ms")
    out += "trace.overhead_pct" -> (100 * (med(traced) - med(untraced)) / med(untraced), "%")
    val uncovered = perQuery("query", self = true)
    out += "trace.uncovered_ms.p50" -> (med(uncovered), "ms")
    out += "trace.uncovered_pct" -> (100 * med(uncovered) / med(traced), "%")
    out += "query.drift_pct" -> (driftPct, "%")
    out.toSeq
  }
}
