package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class CsrGraphSpec extends AnyFunSuite {

  private val g = CsrGraph.fromEdges(5, Seq((0, 1), (1, 2), (2, 3), (0, 3), (1, 3)))

  test("degrees and m") {
    assert(g.n == 5)
    assert(g.m == 5)
    assert((0 until 5).map(g.degree) == Seq(2, 3, 2, 3, 0))
  }

  test("neighbors sorted and symmetric") {
    assert(g.neighbors(1).toSeq == Seq(0, 2, 3))
    assert(g.neighbors(3).toSeq == Seq(0, 1, 2))
    assert(g.neighbors(4).toSeq == Seq.empty)
    for (v <- 0 until g.n; u <- g.neighbors(v)) assert(g.neighbors(u).contains(v))
  }

  test("self-loops dropped, duplicates collapsed") {
    val h = CsrGraph.fromEdges(3, Seq((0, 0), (0, 1), (1, 0), (0, 1), (1, 2)))
    assert(h.m == 2)
    assert(h.neighbors(0).toSeq == Seq(1))
  }

  test("split separates earlier and later neighbours") {
    assert(g.earlierNeighbors(1).toSeq == Seq(0))
    assert(g.laterNeighbors(1).toSeq == Seq(2, 3))
    assert(g.laterNeighbors(3).toSeq == Seq.empty)
    assert(g.earlierNeighbors(0).toSeq == Seq.empty)
    assert(g.laterDegree(0) == 2)
  }

  test("hasEdge") {
    assert(g.hasEdge(0, 1) && g.hasEdge(1, 0))
    assert(!g.hasEdge(0, 2))
    assert(!g.hasEdge(4, 0))
  }

  test("edges are canonical (u < v) and complete") {
    assert(g.edges.toSet == Set((0, 1), (1, 2), (2, 3), (0, 3), (1, 3)))
  }

  test("maxDegree") { assert(g.maxDegree == 3) }

  test("relabelled permutes ids consistently") {
    val order = Array(4, 3, 2, 1, 0) // old id order(i) becomes new id i
    val h = g.relabelled(order)
    // old edge (0,1) -> new (4,3)
    assert(h.edges.toSet == Set((3, 4), (2, 3), (1, 2), (1, 4), (1, 3)))
    assert((0 until 5).map(h.degree) == Seq(0, 3, 2, 3, 2))
  }

  /** Rows sorted and duplicate-free, `split` at the first later neighbour. */
  private def wellFormed(h: CsrGraph, label: String): Unit =
    for (v <- 0 until h.n) {
      val row = h.neighbors(v)
      assert(row.toSeq == row.distinct.sorted.toSeq, s"$label: row $v")
      assert(h.split(v) - h.offsets(v) == row.count(_ < v), s"$label: split($v)")
    }

  /** `h.relabelled(order)` equals the graph rebuilt from `h`'s edge tuples
    * with old id `order(i)` renamed to `i`.
    */
  private def assertMatchesOracle(h: CsrGraph, order: Array[Int], label: String): Unit = {
    val pos = Array.fill(h.n)(-1)
    for (i <- order.indices) pos(order(i)) = i
    val oracle = CsrGraph.fromEdges(order.length, h.edges.map { case (u, v) => (pos(u), pos(v)) })
    val r = h.relabelled(order)
    wellFormed(r, label)
    assert(r.n == order.length && r.m == h.m, s"$label: size")
    assert(r.offsets.toSeq == oracle.offsets.toSeq, s"$label: offsets")
    assert(r.adj.toSeq == oracle.adj.toSeq, s"$label: adj")
    assert(r.split.toSeq == oracle.split.toSeq, s"$label: split")
  }

  /** 40 random graphs, each with about 30% of its vertices isolated. */
  private def randomGraphs(rnd: Random): Seq[CsrGraph] =
    for (_ <- 0 until 40) yield {
      val n = 1 + rnd.nextInt(60)
      val p = rnd.nextDouble() * 0.4
      val isolated = (0 until n).filter(_ => rnd.nextDouble() < 0.3).toSet
      val edges = for (i <- 0 until n; j <- (i + 1) until n
                       if !isolated(i) && !isolated(j) && rnd.nextDouble() < p) yield (i, j)
      CsrGraph.fromEdges(n, edges)
    }

  test("relabelled equals a tuple-rebuild oracle on random graphs and permutations") {
    val rnd = new Random(17)
    for ((h, trial) <- randomGraphs(rnd).zipWithIndex)
      assertMatchesOracle(h, rnd.shuffle((0 until h.n).toVector).toArray, s"trial $trial")
  }

  test("relabelled rejects an order that is not a permutation") {
    assertThrows[IllegalArgumentException](g.relabelled(Array(0, 1, 2, 2, 4)))
  }

  test("relabelled drops isolated vertices left out of the order, as a tuple rebuild of the induced graph") {
    val rnd = new Random(23)
    for ((h, trial) <- randomGraphs(rnd).zipWithIndex)
      assertMatchesOracle(h, rnd.shuffle((0 until h.n).filter(h.degree(_) > 0).toVector).toArray,
        s"trial $trial")
  }

  test("relabelled rejects an order that leaves out a vertex with edges or an id out of range") {
    assert(g.relabelled(Array(3, 2, 1, 0)).n == 4) // vertex 4 is isolated
    assertThrows[IllegalArgumentException](g.relabelled(Array(3, 2, 1)))
    assertThrows[IllegalArgumentException](g.relabelled(Array(3, 2, 1, 0, 5)))
    assertThrows[IllegalArgumentException](g.relabelled(Array(3, 2, 1, 0, -1)))
  }

  /** Slot of `v` in `u`'s row. */
  private def slot(h: CsrGraph, u: Int, v: Int): Int =
    java.util.Arrays.binarySearch(h.adj, h.offsets(u), h.offsets(u + 1), v)

  test("compacted keeps the vertices with a kept slot, renumbered in increasing id") {
    // Vertex 1 peeled, vertex 4 isolated: 0, 2 and 3 keep an edge.
    val (h, toOrig) = g.compacted(new Array[Boolean](g.adj.length), Array(false, true, false, false, false))
    assert(toOrig.toSeq == Seq(0, 2, 3))
    wellFormed(h, "peeled 1")
    assert(h.n == 3 && h.m == 2)
    assert((0 until h.n).map(h.neighbors(_).toSeq) == Seq(Seq(2), Seq(2), Seq(0, 1)))
  }

  test("compacted drops dead slots and slots to peeled vertices, as a tuple rebuild") {
    val rnd = new Random(29)
    for ((h, trial) <- randomGraphs(rnd).zipWithIndex) {
      val deadEdges = h.edges.filter(_ => rnd.nextDouble() < 0.3).toSet
      val peeled = Array.fill(h.n)(rnd.nextDouble() < 0.2)
      val dead = new Array[Boolean](h.adj.length)
      for ((u, v) <- deadEdges) { dead(slot(h, u, v)) = true; dead(slot(h, v, u)) = true }
      val keptEdges = h.edges.filter(e => !deadEdges(e) && !peeled(e._1) && !peeled(e._2))
      val ids = keptEdges.flatMap(e => Seq(e._1, e._2)).distinct.sorted
      val rank = ids.zipWithIndex.toMap
      val oracle = CsrGraph.fromEdges(ids.length, keptEdges.map { case (u, v) => (rank(u), rank(v)) })
      val (c, toOrig) = h.compacted(dead, peeled)
      wellFormed(c, s"trial $trial")
      assert(toOrig.toSeq == ids.toSeq, s"trial $trial: toOrig")
      assert(c.offsets.toSeq == oracle.offsets.toSeq, s"trial $trial: offsets")
      assert(c.adj.toSeq == oracle.adj.toSeq, s"trial $trial: adj")
    }
  }

  test("compacted copies a row that loses nothing as is") {
    val h = CsrGraph.fromEdges(4, g.edges) // g without its isolated vertex
    val dead = new Array[Boolean](h.adj.length)
    dead(slot(h, 0, 1)) = true; dead(slot(h, 1, 0)) = true
    val (same, sameIds) = h.compacted(dead, new Array[Boolean](4))
    assert(sameIds.toSeq == Seq(0, 1, 2, 3))
    for (v <- Seq(2, 3)) assert(same.neighbors(v).toSeq == h.neighbors(v).toSeq, s"row $v")
    // Vertex 0 peeled: rows 2 and 3 keep every neighbour but 0, renumbered.
    val (less, lessIds) = h.compacted(new Array[Boolean](h.adj.length), Array(true, false, false, false))
    assert(lessIds.toSeq == Seq(1, 2, 3))
    assert(less.neighbors(1).toSeq.map(lessIds(_)) == h.neighbors(2).toSeq)
    assert(less.neighbors(2).toSeq.map(lessIds(_)) == h.neighbors(3).toSeq.filter(_ != 0))
  }

  test("compacted on the empty and the edgeless graph") {
    for (n <- Seq(0, 4)) {
      val (h, toOrig) = CsrGraph.fromEdges(n, Nil).compacted(Array.empty, new Array[Boolean](n))
      assert(h.n == 0 && h.m == 0 && toOrig.isEmpty, s"n=$n")
    }
    assertThrows[IllegalArgumentException](g.compacted(Array.empty, new Array[Boolean](5)))
  }

  test("fromLongEdges compacts ids and returns the mapping") {
    val (h, toOrig) = CsrGraph.fromLongEdges(Array(100L, 7L, 7L, 55L, 100L, 55L))
    assert(h.n == 3)
    assert(toOrig.toSeq == Seq(7L, 55L, 100L))
    assert(h.m == 3)
    assert(h.hasEdge(0, 1) && h.hasEdge(1, 2) && h.hasEdge(0, 2))
  }

  test("fromLongEdges drops self-loops before compacting") {
    val (h, toOrig) = CsrGraph.fromLongEdges(Array(5L, 5L, 1L, 2L))
    assert(h.n == 2)
    assert(toOrig.toSeq == Seq(1L, 2L))
  }

  test("fromLongEdges: negative ids, ids above Int.MaxValue, self-loops, duplicates") {
    val big = Int.MaxValue.toLong + 5
    val raw = Seq((-3L, big), (big, -3L), (-3L, big), (7L, 7L), (Long.MinValue, 7L),
      (Long.MaxValue, big), (big, big), (-3L, 0L), (0L, 7L), (7L, 0L))
    val ends = raw.flatMap { case (a, b) => Seq(a, b) }.toArray
    val (h, toOrig) = CsrGraph.fromLongEdges(ends)
    assert(ends.toSeq == raw.flatMap { case (a, b) => Seq(a, b) }, "input left as it was")
    assert(toOrig.toSeq == Seq(Long.MinValue, -3L, 0L, 7L, big, Long.MaxValue))
    assert(h.n == 6)
    wellFormed(h, "long ids")
    val expected = raw.collect { case (a, b) if a != b => Set(a, b) }.toSet
    assert(h.m == expected.size)
    assert(h.edges.map { case (a, b) => Set(toOrig(a), toOrig(b)) }.toSet == expected)
  }

  test("fromLongEdges on an empty or all-loop list") {
    for (ends <- Seq(Array.empty[Long], Array(4L, 4L))) {
      val (h, toOrig) = CsrGraph.fromLongEdges(ends)
      assert(h.n == 0 && h.m == 0 && toOrig.isEmpty)
    }
  }

  test("rejects out-of-range vertices") {
    assertThrows[IllegalArgumentException](CsrGraph.fromEdges(2, Seq((0, 2))))
  }
}
