package repro.core

import java.util.SplittableRandom

import org.scalatest.funsuite.AnyFunSuite
import repro.TestRefs
import repro.graph.LocalGraph

/** Property tests of the last-meeting stage (Algorithms 3-4) on randomly
  * generated layered source graphs — pure JVM, no Spark. Each seed builds a
  * random G_u (levels, down-edges, attention subsets), an underlying graph
  * whose in-neighborhoods agree with G_u (the I^T = I invariant that
  * Source-Push establishes), and checks the stage against the independent
  * DPs of TestRefs.
  */
class SyntheticSourceGraphSpec extends AnyFunSuite {

  private val c = 0.6

  /** Random layered DAG: each node id lives in exactly one level (so the
    * underlying graph's in-degree equals |I^T| at that node's level).
    */
  private def randomSourceGraph(seed: Int): (SourceGraph, LocalGraph) = {
    val rng = new SplittableRandom(seed)
    val l   = 2 + rng.nextInt(4) // L in 2..5
    val sizes = (0 to l).map(i => if (i == 0) 1 else 2 + rng.nextInt(5))
    val offsets = sizes.scanLeft(0)(_ + _)
    val nodesAt = (0 to l).map(i => (offsets(i) until offsets(i + 1)).map(_.toLong))
    val n = offsets.last

    // edges from level i+1 to level i: every level-i node gets >= 1 in-edge
    val downEdges = (0 until l).map { i =>
      val ups = nodesAt(i + 1); val downs = nodesAt(i)
      val es = scala.collection.mutable.Set.empty[(Long, Long)]
      downs.foreach { d => es += ((ups(rng.nextInt(ups.size)), d)) }
      // extra random edges
      (0 until rng.nextInt(2 * ups.size)).foreach { _ =>
        es += ((ups(rng.nextInt(ups.size)), downs(rng.nextInt(downs.size))))
      }
      es.toArray
    }

    val local = LocalGraph.fromEdges(n,
      downEdges.flatten.map { case (u, d) => (u.toInt, d.toInt) })

    // exact h levels by pushing from the root through the layered edges
    val h = scala.collection.mutable.ArrayBuffer[Map[Long, Double]](Map(nodesAt(0).head -> 1.0))
    for (i <- 0 until l) {
      val cur  = h(i)
      val next = scala.collection.mutable.Map.empty[Long, Double]
      cur.foreach { case (v, p) =>
        val ins = downEdges(i).filter(_._2 == v).map(_._1)
        if (ins.nonEmpty) {
          val w = math.sqrt(c) * p / ins.length
          ins.foreach(x => next.update(x, next.getOrElse(x, 0.0) + w))
        }
      }
      h += next.toMap
    }

    // attention: random nonempty subset per level >= 1
    val attention = (0 to l).map { i =>
      if (i == 0) Map.empty[Long, Double]
      else h(i).filter(_ => rng.nextDouble() < 0.6) match {
        case m if m.isEmpty && h(i).nonEmpty => Map(h(i).head)
        case m                               => m
      }
    }

    // G_u edges: the layered edges into the nodes each level reaches
    val numEdges = (0 until l).map(i => downEdges(i).count(e => h(i).contains(e._2)).toLong).sum
    (SourceGraph(nodesAt(0).head, l, l, h.toIndexedSeq, numEdges, attention.toIndexedSeq), local)
  }

  for (seed <- 1 to 15) {
    test(s"Algorithm 3 hitting probabilities match the G_u DP (seed $seed)") {
      val (sg, local) = randomSourceGraph(seed)
      val hp    = LastMeeting.hittingProbs(sg, c, local)
      val index = LastMeeting.attentionIndex(sg)
      for ((a, i) <- index.zipWithIndex) {
        val dp = TestRefs.guHittingDP(sg, local, c, a._1, a._2)
        for ((b, j) <- index.zipWithIndex)
          assert(math.abs(hp(i)(j) - dp.getOrElse(b, 0.0)) < 1e-9, s"from $a to $b")
      }
    }
  }

  for (seed <- 1 to 15) {
    test(s"Algorithm 4 gamma matches the pair-state DP (seed $seed)") {
      val (sg, local) = randomSourceGraph(seed + 500)
      val hp = LastMeeting.hittingProbs(sg, c, local)
      val gm = LastMeeting.gammas(sg, hp)
      for (l <- 1 to sg.L; w <- sg.attention(l).keys) {
        val expect = TestRefs.gammaPairDP(sg, local, c, l, w)
        assert(math.abs(gm((l, w)) - expect) < 1e-9, s"gamma($l,$w)")
        assert(gm((l, w)) >= 0.0 && gm((l, w)) <= 1.0)
      }
    }
  }

  for (seed <- 1 to 8) {
    test(s"residues equal h*gamma and are bounded by h (seed $seed)") {
      val (sg, local) = randomSourceGraph(seed + 900)
      val rs = LastMeeting.residues(sg, c, local)
      val gm = LastMeeting.gammas(sg, LastMeeting.hittingProbs(sg, c, local))
      assert(rs.keySet == gm.keySet)
      rs.foreach { case ((l, w), r) =>
        assert(math.abs(r - sg.h(l)(w) * gm((l, w))) < 1e-12)
        assert(r >= 0.0 && r <= sg.h(l)(w) + 1e-12)
      }
    }
  }

  test("level mass within a layered G_u never exceeds sqrt(c)^l") {
    for (seed <- 1 to 10) {
      val (sg, _) = randomSourceGraph(seed + 50)
      for (l <- 0 to sg.L) {
        assert(sg.h(l).values.sum <= math.pow(math.sqrt(c), l) + 1e-9, s"seed $seed level $l")
      }
    }
  }
}
