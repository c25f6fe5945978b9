package repro.simbench

import java.io._
import java.nio.{ByteBuffer, ByteOrder}
import java.nio.channels.FileChannel
import java.nio.file.{Files, Path, StandardCopyOption, StandardOpenOption}
import java.security.MessageDigest

import repro.eval.ExactSimRank
import repro.graph.LocalGraph

/** Exact SimRank ground truth, optionally cached on disk.
  *
  * The cache key hashes `n`, `c`, the iteration count and the full sorted
  * edge list, so a cached matrix can only ever be read back for the very
  * graph it was computed on.
  */
object Truth {

  /** Power-iteration rounds, as `ExactSimRank`'s default. The iteration
    * climbs monotonically to `s` from below and stops within `c^Iters` of it
    * (0.6^25 = 2.8e-6), so the exact row `s_k` it returns bounds the truth on
    * both sides: `s_k <= s <= s_k + c^Iters`.
    */
  val Iters = 25

  /** Upper bound on `s - s_k` for decay factor `c`. */
  def slack(c: Double): Double = math.pow(c, Iters)

  def edgesOf(lg: LocalGraph): Array[Long] = {
    val out = Array.newBuilder[Long]
    var v = 0
    while (v < lg.n) { lg.outNeighbors(v).foreach(w => out += v.toLong * lg.n + w); v += 1 }
    out.result().sorted
  }

  def key(lg: LocalGraph, c: Double): String = {
    val md = MessageDigest.getInstance("SHA-256")
    val bb = ByteBuffer.allocate(8 * 1024)
    def flush(): Unit = { bb.flip(); md.update(bb); bb.clear() }
    def put(x: Long): Unit = { if (bb.remaining < 8) flush(); bb.putLong(x) }
    put(lg.n.toLong); put(java.lang.Double.doubleToLongBits(c)); put(Iters.toLong)
    edgesOf(lg).foreach(put)
    flush()
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  def compute(lg: LocalGraph, c: Double): Array[Array[Double]] = ExactSimRank.allPairs(lg, c, Iters)

  /** Read the matrix for `lg` from `dir`, computing and storing it on a miss. */
  def cached(lg: LocalGraph, c: Double, dir: Path): Array[Array[Double]] = {
    val f = dir.resolve(key(lg, c) + ".bin")
    if (Files.isRegularFile(f) && Files.size(f) == 8L * lg.n * lg.n) read(f, lg.n)
    else {
      val s = compute(lg, c)
      Files.createDirectories(dir)
      val tmp = Files.createTempFile(dir, "truth", ".tmp")
      write(tmp, s)
      Files.move(tmp, f, StandardCopyOption.REPLACE_EXISTING, StandardCopyOption.ATOMIC_MOVE)
      s
    }
  }

  private def write(f: Path, s: Array[Array[Double]]): Unit = {
    val ch = FileChannel.open(f, StandardOpenOption.WRITE, StandardOpenOption.TRUNCATE_EXISTING)
    try {
      val bb = ByteBuffer.allocate(8 * s.length).order(ByteOrder.LITTLE_ENDIAN)
      s.foreach { row =>
        bb.clear(); bb.asDoubleBuffer().put(row); bb.position(0).limit(8 * row.length)
        while (bb.hasRemaining) ch.write(bb)
      }
    } finally ch.close()
  }

  private def read(f: Path, n: Int): Array[Array[Double]] = {
    val ch = FileChannel.open(f, StandardOpenOption.READ)
    try {
      val bb = ByteBuffer.allocate(8 * n).order(ByteOrder.LITTLE_ENDIAN)
      Array.fill(n) {
        bb.clear()
        while (bb.hasRemaining) if (ch.read(bb) < 0) throw new EOFException(s"short truth file $f")
        bb.flip()
        val row = new Array[Double](n)
        bb.asDoubleBuffer().get(row)
        row
      }
    } finally ch.close()
  }
}
