package repro.graph

import scala.collection.mutable

/** Immutable undirected graph in CSR (compressed sparse row) form.
  *
  * Vertices are `0 until n`; `adj` holds each vertex's neighbours as a
  * sorted, duplicate-free run `adj[offsets(v), offsets(v+1))`. `split(v)`
  * is the index inside that run where neighbours with id `> v` start, so
  * when vertex ids encode a vertex order (as after
  * [[CsrGraph.relabelled]]), `N⁻(v)` and `N⁺(v)` are the two halves of the
  * run — exactly the `X`/`P` initialisation of degeneracy-ordered
  * Bron–Kerbosch (Alg. 2 of the paper).
  */
final class CsrGraph private (
    val n: Int,
    val offsets: Array[Int],
    val adj: Array[Int]) extends Serializable {

  /** Number of undirected edges. */
  val m: Long = adj.length / 2L

  /** Index in `adj` of the first neighbour of `v` greater than `v`. */
  val split: Array[Int] = {
    val s = new Array[Int](n)
    var v = 0
    while (v < n) {
      var i = offsets(v)
      val end = offsets(v + 1)
      while (i < end && adj(i) < v) i += 1
      s(v) = i
      v += 1
    }
    s
  }

  def degree(v: Int): Int = offsets(v + 1) - offsets(v)

  /** Sorted neighbour list of `v` as a fresh array. */
  def neighbors(v: Int): Array[Int] =
    java.util.Arrays.copyOfRange(adj, offsets(v), offsets(v + 1))

  /** Later neighbours `N⁺(v)` (ids greater than `v`) as a fresh array. */
  def laterNeighbors(v: Int): Array[Int] =
    java.util.Arrays.copyOfRange(adj, split(v), offsets(v + 1))

  /** Earlier neighbours `N⁻(v)` (ids smaller than `v`) as a fresh array. */
  def earlierNeighbors(v: Int): Array[Int] =
    java.util.Arrays.copyOfRange(adj, offsets(v), split(v))

  def laterDegree(v: Int): Int = offsets(v + 1) - split(v)

  def hasEdge(u: Int, v: Int): Boolean =
    IntSets.contains(adj, offsets(u), offsets(u + 1), v)

  def maxDegree: Int = {
    var best = 0
    var v = 0
    while (v < n) { val d = degree(v); if (d > best) best = d; v += 1 }
    best
  }

  /** All undirected edges, oriented `u < v`. */
  def edges: Array[(Int, Int)] = {
    val out = mutable.ArrayBuffer.empty[(Int, Int)]
    var v = 0
    while (v < n) {
      var i = split(v)
      val end = offsets(v + 1)
      while (i < end) { out += ((v, adj(i))); i += 1 }
      v += 1
    }
    out.toArray
  }

  /** Graph with vertices renumbered so that old vertex `order(i)` becomes
    * new vertex `i`; used to bake a degeneracy order into vertex ids.
    * `order` lists every vertex with an edge exactly once and may leave out
    * isolated vertices, so the result has `order.length` vertices; a full
    * permutation keeps them all.
    *
    * Transpose-scatter: visiting new ids in increasing order and appending
    * each to its neighbours' rows leaves every row sorted, so no row is
    * sorted and no edge list is built.
    */
  def relabelled(order: Array[Int]): CsrGraph = {
    val k = order.length
    val pos = new Array[Int](n)
    java.util.Arrays.fill(pos, -1)
    val offs = new Array[Int](k + 1)
    var i = 0
    while (i < k) {
      val v = order(i)
      require(v >= 0 && v < n && pos(v) < 0, s"order entry $i ($v) is a repeat or outside 0 until $n")
      pos(v) = i
      offs(i + 1) = offs(i) + degree(v)
      i += 1
    }
    // With no repeats, the listed degrees cover every edge slot iff no
    // vertex with an edge is left out.
    require(offs(k) == adj.length, "order leaves out a vertex with edges")
    val fill = java.util.Arrays.copyOf(offs, k)
    val out = new Array[Int](adj.length)
    i = 0
    while (i < k) {
      val v = order(i)
      var j = offsets(v)
      val end = offsets(v + 1)
      while (j < end) {
        val u = pos(adj(j))
        out(fill(u)) = i
        fill(u) += 1
        j += 1
      }
      i += 1
    }
    new CsrGraph(k, offs, out)
  }

  /** The subgraph left after deletions, on the vertices that keep an edge:
    * slot `i` of `v`'s row stays iff `deadSlot(i)` is clear (`deadSlot` is
    * indexed like `adj`) and neither `v` nor its neighbour is `peeled`.
    * Kept vertices are renumbered in increasing id, so rows stay sorted and
    * are copied, not sorted. Returns the graph and its new-id → old-id
    * table (ascending).
    */
  def compacted(deadSlot: Array[Boolean], peeled: Array[Boolean]): (CsrGraph, Array[Int]) = {
    require(deadSlot.length == adj.length, s"deadSlot has ${deadSlot.length} slots, graph has ${adj.length}")
    require(peeled.length == n, s"peeled has ${peeled.length} vertices, graph has $n")
    // The kept degree of each vertex (counted without a branch), then its
    // new id (or -1).
    val newId = new Array[Int](n)
    var k = 0
    var v = 0
    while (v < n) {
      if (!peeled(v)) {
        var d = 0
        var i = offsets(v)
        val end = offsets(v + 1)
        while (i < end) { d += (if (deadSlot(i) | peeled(adj(i))) 0 else 1); i += 1 }
        newId(v) = d
        if (d > 0) k += 1
      }
      v += 1
    }
    val toOrig = new Array[Int](k)
    val offs = new Array[Int](k + 1)
    var j = 0
    v = 0
    while (v < n) {
      if (newId(v) > 0) {
        toOrig(j) = v
        offs(j + 1) = offs(j) + newId(v)
        newId(v) = j
        j += 1
      } else newId(v) = -1
      v += 1
    }
    // With every vertex kept, no vertex is peeled and the ids stay: a row
    // that loses nothing is one block copy, and no slot needs `newId`.
    val sameIds = k == n
    val out = new Array[Int](offs(k))
    j = 0
    while (j < k) {
      val from = offsets(toOrig(j))
      val end = offsets(toOrig(j) + 1)
      var w = offs(j)
      var i = from
      if (!sameIds) while (i < end) {
        if (!deadSlot(i) && !peeled(adj(i))) { out(w) = newId(adj(i)); w += 1 }
        i += 1
      }
      else if (offs(j + 1) - w == end - from) System.arraycopy(adj, from, out, w, end - from)
      else while (i < end) { if (!deadSlot(i)) { out(w) = adj(i); w += 1 }; i += 1 }
      j += 1
    }
    (new CsrGraph(k, offs, out), toOrig)
  }
}

object CsrGraph {

  /** Build from an arbitrary undirected edge list over vertices `0 until n`.
    * Self-loops are dropped; duplicate edges are collapsed. Counting-sort
    * construction: one pass counts row lengths, one fills the rows, and
    * each row is then sorted and deduplicated in place.
    */
  def fromEdges(n: Int, rawEdges: Iterable[(Int, Int)]): CsrGraph = {
    val count = new Array[Int](n + 1)
    rawEdges.foreach { case (u, v) =>
      require(u >= 0 && u < n && v >= 0 && v < n, s"edge ($u,$v) outside [0,$n)")
      if (u != v) { count(u + 1) += 1; count(v + 1) += 1 }
    }
    var v = 0
    while (v < n) { count(v + 1) += count(v); v += 1 }
    val fill = java.util.Arrays.copyOf(count, n + 1)
    val raw = new Array[Int](count(n))
    rawEdges.foreach { case (a, b) =>
      if (a != b) {
        raw(fill(a)) = b; fill(a) += 1
        raw(fill(b)) = a; fill(b) += 1
      }
    }
    sortedRows(n, count, raw)
  }

  /** Build from packed Long endpoints, `ends(2e)` and `ends(2e+1)` for raw
    * edge e (as collected from a Spark DataFrame; `ends` is not modified),
    * compacting ids to `0 until n` in increasing order. Returns the graph and
    * the new-id → original-id table (ascending). Self-loops are dropped
    * before compacting, duplicates in either orientation are collapsed.
    */
  def fromLongEdges(ends: Array[Long]): (CsrGraph, Array[Long]) = {
    // kept(0 until k): the endpoints of the non-loop edges, then their new ids.
    val kept = new Array[Long](ends.length)
    var k = 0
    var i = 0
    while (i < ends.length) {
      if (ends(i) != ends(i + 1)) { kept(k) = ends(i); kept(k + 1) = ends(i + 1); k += 2 }
      i += 2
    }
    val ids = java.util.Arrays.copyOf(kept, k)
    java.util.Arrays.sort(ids)
    var n = 0
    i = 0
    while (i < ids.length) {
      if (n == 0 || ids(i) != ids(n - 1)) { ids(n) = ids(i); n += 1 }
      i += 1
    }
    val toOrig = java.util.Arrays.copyOf(ids, n)
    val count = new Array[Int](n + 1)
    i = 0
    while (i < k) {
      val x = java.util.Arrays.binarySearch(toOrig, kept(i))
      kept(i) = x
      count(x + 1) += 1
      i += 1
    }
    var v = 0
    while (v < n) { count(v + 1) += count(v); v += 1 }
    val fill = java.util.Arrays.copyOf(count, n + 1)
    val raw = new Array[Int](k)
    i = 0
    while (i < k) {
      val a = kept(i).toInt; val b = kept(i + 1).toInt
      raw(fill(a)) = b; fill(a) += 1
      raw(fill(b)) = a; fill(b) += 1
      i += 2
    }
    (sortedRows(n, count, raw), toOrig)
  }

  /** Sort each row `raw[count(v), count(v+1))` and drop duplicates, giving
    * the CSR.
    */
  private def sortedRows(n: Int, count: Array[Int], raw: Array[Int]): CsrGraph = {
    val offsets = new Array[Int](n + 1)
    val adj = new Array[Int](raw.length)
    var w = 0
    var v = 0
    while (v < n) {
      val from = count(v); val until = count(v + 1)
      java.util.Arrays.sort(raw, from, until)
      offsets(v) = w
      var i = from
      var prev = -1
      while (i < until) {
        val x = raw(i)
        if (x != prev) { adj(w) = x; w += 1; prev = x }
        i += 1
      }
      v += 1
    }
    offsets(n) = w
    new CsrGraph(n, offsets, if (w == adj.length) adj else java.util.Arrays.copyOf(adj, w))
  }
}
