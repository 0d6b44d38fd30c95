package repro.core

import scala.collection.mutable

/** Consumer of reported maximal cliques.
  *
  * Kernels call [[report]] with a scratch buffer holding the clique's
  * vertices (original graph ids, unordered) in `vertices[0, len)`; the sink
  * must copy what it needs — the buffer is reused by the caller.
  */
trait CliqueSink {
  def report(vertices: Array[Int], len: Int): Unit
}

object CliqueSink {

  /** 64-bit mix (splitmix64 finaliser) for clique checksums. */
  def mix64(x0: Long): Long = {
    var x = x0 + 0x9E3779B97F4A7C15L
    x = (x ^ (x >>> 30)) * 0xBF58476D1CE4E5B9L
    x = (x ^ (x >>> 27)) * 0x94D049BB133111EBL
    x ^ (x >>> 31)
  }

  /** Order-independent hash of one clique (a set of vertex ids). */
  def cliqueHash(vertices: Array[Int], len: Int): Long = {
    var s = 0L
    var x = 0L
    var i = 0
    while (i < len) {
      val h = mix64(vertices(i).toLong)
      s += h
      x ^= h
      i += 1
    }
    mix64(s ^ java.lang.Long.rotateLeft(x, 32) ^ len.toLong)
  }

  /** [[cliqueHash]] of the clique's ids mapped through `toLong`, for sinks
    * whose graph was compacted from Long ids: the hash then depends only on
    * the original ids, not on the compaction.
    */
  def cliqueHash(vertices: Array[Int], len: Int, toLong: Array[Long]): Long = {
    var s = 0L
    var x = 0L
    var i = 0
    while (i < len) {
      val h = mix64(toLong(vertices(i)))
      s += h
      x ^= h
      i += 1
    }
    mix64(s ^ java.lang.Long.rotateLeft(x, 32) ^ len.toLong)
  }
}

/** Counts cliques and keeps an order-independent multiset checksum, so two
  * algorithms can be checked for identical clique sets without materialising
  * them.
  */
final class CountingSink extends CliqueSink with Serializable {
  var count: Long = 0L
  var checksum: Long = 0L

  override def report(vertices: Array[Int], len: Int): Unit = {
    count += 1
    checksum += CliqueSink.cliqueHash(vertices, len)
  }
}

/** Materialises every clique as a `Set[Int]` — for tests on small graphs. */
final class CollectingSink extends CliqueSink {
  val cliques: mutable.ArrayBuffer[Set[Int]] = mutable.ArrayBuffer.empty

  override def report(vertices: Array[Int], len: Int): Unit = {
    val b = Set.newBuilder[Int]
    var i = 0
    while (i < len) { b += vertices(i); i += 1 }
    cliques += b.result()
  }

  def asSet: Set[Set[Int]] = cliques.toSet
}
