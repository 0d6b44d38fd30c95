package repro.core

import scala.collection.mutable

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
