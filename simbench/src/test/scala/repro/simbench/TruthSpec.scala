package repro.simbench

import java.nio.file.{Files, Paths}

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.LocalGraph

class TruthSpec extends AnyFunSuite {

  private val g1 = LocalGraph.fromEdges(4, Seq((0, 1), (1, 2), (2, 0), (3, 0), (3, 2)))
  private val g2 = LocalGraph.fromEdges(4, Seq((0, 1), (1, 2), (2, 0), (3, 0), (3, 1)))

  test("the cache key hashes the full edge list") {
    assert(Truth.key(g1, 0.6) == Truth.key(LocalGraph.fromEdges(4, Seq((3, 2), (3, 0), (2, 0), (1, 2), (0, 1))), 0.6))
    assert(Truth.key(g1, 0.6) != Truth.key(g2, 0.6))
    assert(Truth.key(g1, 0.6) != Truth.key(g1, 0.8))
  }

  test("a cached matrix reads back exactly, and only for its own graph") {
    val dir = Files.createTempDirectory(Files.createDirectories(Paths.get("target")), "truth")
    val a   = Truth.cached(g1, 0.6, dir)
    val b   = Truth.cached(g1, 0.6, dir)
    assert(a.map(_.toSeq).toSeq == b.map(_.toSeq).toSeq)
    assert(a.map(_.toSeq).toSeq == Truth.compute(g1, 0.6).map(_.toSeq).toSeq)
    val c = Truth.cached(g2, 0.6, dir)
    assert(c.map(_.toSeq).toSeq == Truth.compute(g2, 0.6).map(_.toSeq).toSeq)
    assert(Files.list(dir).count() == 2)
  }
}
