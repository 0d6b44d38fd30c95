package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.gen.GraphGen
import repro.graph.{CsrGraph, Degeneracy}
import scala.collection.mutable
import TestGraphs._

/** Invariant of Section 4: `mc(G) = mc(G′) + α(ΔV, ΔE)` — the reduction's
  * pre-reported cliques are exactly the maximal cliques of `G` missing from
  * the reduced graph's enumeration, with no duplicates and no non-maximal
  * reports.
  */
class GlobalReductionSpec extends AnyFunSuite {

  /** The reduced graph over the input's `n` ids, through `toOrig`. */
  private def inInputIds(res: GlobalReduction.Result, n: Int): CsrGraph =
    CsrGraph.fromEdges(n, res.reduced.edges.map { case (u, v) => (res.toOrig(u), res.toOrig(v)) })

  private def invariant(g: CsrGraph, label: String): Unit = {
    val sink = new CollectingSink
    val metrics = new Metrics(g.n)
    val res = GlobalReduction(g, sink, metrics)
    val pre = sink.cliques.map(_.toSet)
    assert(pre.size == pre.toSet.size, s"$label: duplicate pre-reported cliques")
    pre.foreach { c =>
      assert(BruteForce.isMaximalClique(g, c), s"$label: pre-report $c not maximal in G")
    }
    val rest = BruteForce.maximalCliques(inInputIds(res, g.n))
    assert(rest.intersect(pre.toSet).isEmpty, s"$label: clique found on both sides")
    assert(rest ++ pre == BruteForce.maximalCliques(g), s"$label: union mismatch")
    assert(metrics.preReportedGlobal == pre.size)
    assert(metrics.globalDeletedEdges == g.m - res.reduced.m)
  }

  test("invariant on fixed graphs") {
    Seq("figure2" -> figure2, "paw" -> paw, "diamond" -> diamond, "k4" -> k4,
      "path5" -> path5, "cycle6" -> cycle6, "star5" -> star5,
      "singleEdge" -> singleEdge).foreach { case (l, g) => invariant(g, l) }
  }

  test("invariant on random graphs across densities") {
    for (seed <- 1 to 10) invariant(gnp(18, 0.12, seed), s"sparse-$seed")
    for (seed <- 1 to 10) invariant(gnp(15, 0.4, seed), s"med-$seed")
    for (seed <- 1 to 6) invariant(mixed(seed), s"mixed-$seed")
  }

  test("path is fully reduced") {
    val sink = new CollectingSink
    val res = GlobalReduction(path5, sink, new Metrics(path5.n))
    assert(res.reduced.m == 0)
    assert(sink.asSet == Set(Set(0, 1), Set(1, 2), Set(2, 3), Set(3, 4)))
  }

  test("star is fully reduced") {
    val sink = new CollectingSink
    val res = GlobalReduction(star5, sink, new Metrics(star5.n))
    assert(res.reduced.m == 0)
    assert(sink.cliques.size == 5)
  }

  test("2-D grid (road-network regime) is fully reduced") {
    val g = repro.gen.GraphGen.grid2d(12, 15).toCsr
    val sink = new CountingSink
    val metrics = new Metrics(g.n)
    val res = GlobalReduction(g, sink, metrics)
    assert(res.reduced.m == 0, "triangle-free grid must lose every edge")
    assert(metrics.globalDeletedVertices == g.n)
    assert(sink.count == g.m, "every grid edge is a maximal 2-clique")
  }

  test("triangular torus (Delaunay regime) is untouched") {
    val g = repro.gen.GraphGen.triangularTorus(6, 8).toCsr
    val sink = new CountingSink
    val metrics = new Metrics(g.n)
    val res = GlobalReduction(g, sink, metrics)
    assert(res.reduced.m == g.m, "6-regular torus with all edges in triangles must survive")
    assert(metrics.globalDeletedVertices == 0)
    assert(sink.count == 0)
  }

  test("complete graph is untouched") {
    val sink = new CountingSink
    val res = GlobalReduction(k6, sink, new Metrics(k6.n))
    assert(res.reduced.m == k6.m)
    assert(sink.count == 0)
  }

  test("isolated triangle collapses to one report") {
    val g = fromEdges(3, (0, 1), (1, 2), (0, 2))
    val sink = new CollectingSink
    val res = GlobalReduction(g, sink, new Metrics(3))
    assert(res.reduced.m == 0)
    assert(sink.asSet == Set(Set(0, 1, 2)))
  }

  test("degree-two case 3 keeps the base edge") {
    // v=4 has neighbours 0,1 which share another common neighbour 2.
    val g = fromEdges(5, (0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3), (0, 4), (1, 4))
    val sink = new CollectingSink
    val res = GlobalReduction(g, sink, new Metrics(5))
    val reduced = inInputIds(res, g.n)
    assert(sink.asSet == Set(Set(0, 1, 4)))
    assert(reduced.hasEdge(0, 1), "edge (0,1) still carried by clique {0,1,2,3}")
    assert(BruteForce.maximalCliques(reduced) == Set(Set(0, 1, 2, 3)))
  }

  test("reduction can cascade through multiple rounds") {
    // A triangle fan hanging off a pendant chain: removing the chain exposes
    // new low-degree vertices round after round.
    val g = fromEdges(7, (0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6))
    invariant(g, "cascade")
  }

  test("a peel inside the edge pass deletes the edges of a vertex the pass has not reached") {
    // K5 {0..4}, K4 {9..12}, and between them 0-5, the triangles 5-6-7 and
    // 6-7-8, and 8-9. No vertex starts at degree <= 2. At h = 0 the pass
    // deletes the non-triangle edge (0,5); the peel it feeds then deletes
    // 5, 6, 7 and 8 (all above 0, with edges the pass would test from 6, 7,
    // 8 and 9) before the pass moves on.
    val k5 = for (u <- 0 to 4; v <- u + 1 to 4) yield (u, v)
    val k4 = for (u <- 9 to 12; v <- u + 1 to 12) yield (u, v)
    val g = CsrGraph.fromEdges(13, k5 ++ k4 ++ Seq((0, 5), (5, 6), (5, 7), (6, 7), (6, 8), (7, 8), (8, 9)))
    assert((0 until g.n).forall(g.degree(_) >= 3))
    val sink = new CollectingSink
    val metrics = new Metrics(g.n)
    val res = GlobalReduction(g, sink, metrics)
    assert(sink.asSet == Set(Set(0, 5), Set(5, 6, 7), Set(6, 7, 8), Set(8, 9)))
    assert(metrics.globalDeletedVertices == 4)
    assert(res.toOrig.toSeq == Seq(0, 1, 2, 3, 4, 9, 10, 11, 12))
    assert(inInputIds(res, g.n).edges.toSet == (k5 ++ k4).toSet)
    invariant(g, "in-pass peel")
    sameAsReference(g, "in-pass peel")
  }

  test("degeneracy of the reduced graph never exceeds the original") {
    for (seed <- 1 to 6) {
      val g = mixed(seed)
      val res = GlobalReduction(g, new CountingSink, new Metrics(g.n))
      assert(Degeneracy.degeneracy(res.reduced) <= Degeneracy.degeneracy(g))
    }
  }

  /** The slot-indexed reduction against [[BinarySearchGlobalReduction]]. */
  private def sameAsReference(g: CsrGraph, label: String): Unit = {
    val sink = new CollectingSink
    val metrics = new Metrics(g.n)
    val res = GlobalReduction(g, sink, metrics)
    val refSink = new CollectingSink
    val refMetrics = new Metrics(g.n)
    val (ref, dirtyDeletions) = BinarySearchGlobalReduction(g, refSink, refMetrics)
    val toOrig = res.toOrig
    assert(toOrig.length == res.reduced.n, s"$label: id table size")
    assert(toOrig.forall(v => v >= 0 && v < g.n), s"$label: id space")
    assert(toOrig.indices.drop(1).forall(i => toOrig(i - 1) < toOrig(i)), s"$label: toOrig not increasing")
    assert((0 until res.reduced.n).forall(res.reduced.degree(_) > 0), s"$label: a degree-0 vertex")
    // Whole rows by input id, not just `edges` (the upper half of each
    // row), so that a slot left live in one of its two rows shows.
    val newId = Array.fill(g.n)(-1)
    toOrig.indices.foreach(i => newId(toOrig(i)) = i)
    for (v <- 0 until g.n) {
      val row = if (newId(v) < 0) Seq.empty else res.reduced.neighbors(newId(v)).toSeq.map(toOrig(_))
      assert(row == ref.neighbors(v).toSeq, s"$label: row of $v")
    }
    assert(metrics.globalDeletedVertices == refMetrics.globalDeletedVertices, s"$label: deleted vertices")
    assert(metrics.globalDeletedEdges == refMetrics.globalDeletedEdges, s"$label: deleted edges")
    def multiset(c: Iterable[Set[Int]]) = c.groupBy(identity).map { case (k, v) => k -> v.size }
    assert(multiset(sink.cliques) == multiset(refSink.cliques), s"$label: pre-reported cliques")
    // GlobalReduction has no re-probe queue: Lemma 3 already deletes every
    // edge that loses its last triangle, so re-probing deletes nothing.
    assert(dirtyDeletions == 0, s"$label: the re-probe queue deleted an edge")
  }

  /** Holme–Kim core plus a degree-1/2 fringe, whose hub rows are more than
    * 16 times as long as their fringe neighbours' rows.
    */
  private def fringed(seed: Long): CsrGraph =
    GraphGen.withFringe(GraphGen.powerLawCluster(1500, 3, 0.35, seed), 800, 300, seed).toCsr

  test("same reduction as the binary-search version on G(n, p)") {
    for (seed <- 1 to 8; (n, p) <- Seq((40, 0.08), (60, 0.1), (50, 0.25), (30, 0.5)))
      sameAsReference(gnp(n, p, seed), s"gnp($n,$p,$seed)")
    for (seed <- 1 to 6) sameAsReference(mixed(seed), s"mixed-$seed")
  }

  test("same reduction as the binary-search version on a fringed preferential-attachment graph") {
    for (seed <- 1L to 3L) {
      val g = fringed(seed)
      val skewed = (0 until g.n).exists(u => g.neighbors(u).exists(v => g.degree(u) > 16 * g.degree(v)))
      assert(skewed, s"fringed($seed) has no hub row 16x its neighbour's")
      sameAsReference(g, s"fringed-$seed")
    }
  }

  test("same reduction as the binary-search version on cliques with pendants and the empty graph") {
    for ((k, pend, bridges) <- Seq((5, 3, 2), (12, 20, 6), (30, 10, 0)))
      sameAsReference(completeWithFringe(k, pend, bridges)._1, s"K$k+$pend+$bridges")
    sameAsReference(CsrGraph.fromEdges(0, Nil), "empty")
    sameAsReference(CsrGraph.fromEdges(4, Nil), "edgeless")
  }

  test("a graph the reduction cannot touch comes back as the same object") {
    for ((label, g) <- Seq("K40" -> complete(40), "torus" -> GraphGen.triangularTorus(6, 8).toCsr)) {
      val metrics = new Metrics(g.n)
      val res = GlobalReduction(g, new CountingSink, metrics)
      assert(res.reduced eq g, s"$label was rebuilt")
      assert(res.toOrig.toSeq == (0 until g.n), s"$label: ids changed")
      assert(metrics.globalDeletedEdges == 0 && metrics.globalDeletedVertices == 0, label)
    }
  }
}

/** The global reduction before slot indexing, as a reference for the
  * differential tests: liveness by binary search, boxed queues, a re-probe
  * ("dirty") queue, and the reduced graph rebuilt from edge tuples. Its
  * counts go to `metrics` as the real one's do; it also returns how many
  * edges the re-probe deleted.
  */
private object BinarySearchGlobalReduction {

  def apply(g: CsrGraph, sink: CliqueSink, metrics: Metrics): (CsrGraph, Int) = {
    val n = g.n
    val adj = g.adj
    val off = g.offsets
    val deg = Array.tabulate(n)(g.degree)
    val removedV = new Array[Boolean](n)
    val removedSlot = new Array[Boolean](adj.length) // per directed edge slot
    val buf = new Array[Int](3)
    var deletedVertices = 0
    var dirtyDeletions = 0

    /** Position of `b` in `a`'s sorted adjacency row, or -1. */
    def posOf(a: Int, b: Int): Int = {
      var lo = off(a)
      var hi = off(a + 1) - 1
      while (lo <= hi) {
        val mid = (lo + hi) >>> 1
        val v = adj(mid)
        if (v == b) return mid
        else if (v < b) lo = mid + 1
        else hi = mid - 1
      }
      -1
    }

    def edgeAlive(a: Int, b: Int): Boolean = {
      if (removedV(a) || removedV(b)) return false
      val p = posOf(a, b)
      p >= 0 && !removedSlot(p)
    }

    def report2(a: Int, b: Int): Unit = {
      buf(0) = a; buf(1) = b
      sink.report(buf, 2)
    }
    def report3(a: Int, b: Int, c: Int): Unit = {
      buf(0) = a; buf(1) = b; buf(2) = c
      sink.report(buf, 3)
    }

    val queue = mutable.ArrayDeque.empty[Int]
    val inQueue = new Array[Boolean](n)
    def enqueueIfLow(v: Int): Unit =
      if (!removedV(v) && !inQueue(v) && deg(v) <= 2) {
        queue.append(v); inQueue(v) = true
      }

    // Dirty queue: canonical slots (u < adj(slot)) whose triangle support
    // may have changed and must be re-probed by the non-triangle rule.
    val dirty = mutable.ArrayDeque.empty[Long] // (u << 32) | v, u < v
    val inDirty = new Array[Boolean](adj.length) // indexed by canonical slot
    def markDirty(u0: Int, v0: Int): Unit = {
      val u = math.min(u0, v0)
      val v = math.max(u0, v0)
      if (!removedV(u) && !removedV(v)) {
        val p = posOf(u, v)
        if (p >= 0 && !removedSlot(p) && !inDirty(p)) {
          inDirty(p) = true
          dirty.append((u.toLong << 32) | v.toLong)
        }
      }
    }
    def removeEdge(u: Int, v: Int): Unit = {
      // Deleting (u,v) can only break triangles (u,v,z): exactly the edges
      // (u,z) and (v,z) for live common neighbours z need a re-probe (a
      // non-triangle edge has none, so its removal enqueues nothing).
      var i = off(u); val iEnd = off(u + 1)
      var j = off(v); val jEnd = off(v + 1)
      while (i < iEnd && j < jEnd) {
        val a = adj(i); val b = adj(j)
        if (a == b) {
          if (!removedV(a) && !removedSlot(i) && !removedSlot(j)) {
            markDirty(u, a); markDirty(v, a)
          }
          i += 1; j += 1
        } else if (a < b) i += 1
        else j += 1
      }
      removedSlot(posOf(u, v)) = true
      removedSlot(posOf(v, u)) = true
      deg(u) -= 1; deg(v) -= 1
      enqueueIfLow(u); enqueueIfLow(v)
    }

    def removeVertex(v: Int): Unit = {
      var i = off(v)
      val end = off(v + 1)
      while (i < end) {
        val u = adj(i)
        if (!removedSlot(i) && !removedV(u)) {
          deg(u) -= 1
          enqueueIfLow(u)
        }
        i += 1
      }
      removedV(v) = true
      deletedVertices += 1
    }

    /** The (up to) two live neighbours of a degree-≤2 vertex. */
    val nbr2 = new Array[Int](2)
    def liveNeighbors2(v: Int): Int = {
      var k = 0
      var i = off(v)
      val end = off(v + 1)
      while (i < end && k < 2) {
        val u = adj(i)
        if (!removedSlot(i) && !removedV(u)) { nbr2(k) = u; k += 1 }
        i += 1
      }
      k
    }

    /** One live common neighbour of u and v other than `skip`, or -1. The
      * merge walks both rows by position, so liveness checks are O(1);
      * heavily skewed pairs (hub edges) switch to probing the small row's
      * entries into the large row by binary search.
      */
    def commonNeighbor(u: Int, v: Int, skip: Int): Int = {
      val du = off(u + 1) - off(u)
      val dv = off(v + 1) - off(v)
      if (du > 16 * dv || dv > 16 * du) {
        val small = if (du <= dv) u else v
        val large = if (du <= dv) v else u
        var i = off(small)
        val end = off(small + 1)
        while (i < end) {
          val a = adj(i)
          if (a != skip && !removedSlot(i) && !removedV(a)) {
            val p = posOf(large, a)
            if (p >= 0 && !removedSlot(p)) return a
          }
          i += 1
        }
        -1
      } else {
        var i = off(u); val iEnd = off(u + 1)
        var j = off(v); val jEnd = off(v + 1)
        while (i < iEnd && j < jEnd) {
          val a = adj(i); val b = adj(j)
          if (a == b) {
            if (a != skip && !removedV(a) && !removedSlot(i) && !removedSlot(j)) return a
            i += 1; j += 1
          } else if (a < b) i += 1
          else j += 1
        }
        -1
      }
    }

    /** Alg. 5 over the pending queue (handles cascades). */
    def vertexReduction(): Unit = {
      while (queue.nonEmpty) {
        val v = queue.removeHead()
        inQueue(v) = false
        if (!removedV(v)) {
          val d = deg(v)
          if (d == 0) {
            // Lemma 1 — all its cliques were reported when its edges went.
            if (g.degree(v) > 0) removeVertex(v)
          } else if (d == 1) {
            // Lemma 2: {v,u} is a maximal 2-clique.
            liveNeighbors2(v)
            val u = nbr2(0)
            report2(v, u)
            removeVertex(v)
          } else if (d == 2) {
            // Lemma 3, three scenarios.
            liveNeighbors2(v)
            val u = nbr2(0); val w = nbr2(1)
            if (!edgeAlive(u, w)) {
              report2(v, u); report2(v, w)
              removeVertex(v)
            } else if (commonNeighbor(u, w, skip = v) < 0) {
              // {v,u,w} is the last clique over edge (u,w): delete it too so
              // {u,w} is never reported as a (non-maximal) 2-clique later.
              report3(v, u, w)
              removeVertex(v)
              removeEdge(u, w)
            } else {
              report3(v, u, w)
              removeVertex(v)
              // (u,w) survives but v was one of its triangle witnesses.
              markDirty(u, w)
            }
          }
        }
      }
    }

    /** Alg. 6, single full pass with the paper's visited-triangle marking:
      * once an edge is seen inside a triangle, its two sibling edges need
      * no probe of their own this pass. Later support changes are handled
      * by the dirty queue, not by re-scanning. `visited` is indexed by
      * canonical slot (the u→v direction with u < v).
      */
    def initialEdgePass(): Unit = {
      val visited = new Array[Boolean](adj.length)
      def markVisited(a0: Int, b0: Int): Unit = {
        val a = math.min(a0, b0); val b = math.max(a0, b0)
        val p = posOf(a, b)
        if (p >= 0) visited(p) = true
      }
      var u = 0
      while (u < n) {
        if (!removedV(u)) {
          var i = off(u)
          val end = off(u + 1)
          while (i < end) {
            val v = adj(i)
            if (u < v && !visited(i) && !removedSlot(i) && !removedV(v)) {
              val c = commonNeighbor(u, v, skip = -1)
              if (c < 0) {
                report2(u, v)
                removeEdge(u, v)
              } else {
                visited(i) = true
                markVisited(u, c)
                markVisited(v, c)
              }
            }
            i += 1
          }
        }
        u += 1
      }
    }

    /** Re-probe edges whose support may have changed. */
    def processDirty(): Unit = {
      while (dirty.nonEmpty) {
        val k = dirty.removeHead()
        val u = (k >>> 32).toInt
        val v = (k & 0xFFFFFFFFL).toInt
        val p = posOf(u, v)
        if (p >= 0) inDirty(p) = false
        if (edgeAlive(u, v) && commonNeighbor(u, v, skip = -1) < 0) {
          report2(u, v)
          removeEdge(u, v)
          dirtyDeletions += 1
        }
      }
    }

    // Low-degree peel, one full edge pass, then localised re-probes to a
    // joint fix-point.
    var v = 0
    while (v < n) { enqueueIfLow(v); v += 1 }
    vertexReduction()
    initialEdgePass()
    while (queue.nonEmpty || dirty.nonEmpty) {
      vertexReduction()
      processDirty()
    }

    val reducedEdges = mutable.ArrayBuffer.empty[(Int, Int)]
    v = 0
    while (v < n) {
      if (!removedV(v)) {
        var i = off(v)
        val end = off(v + 1)
        while (i < end) {
          val u = adj(i)
          if (v < u && !removedSlot(i) && !removedV(u)) reducedEdges += ((v, u))
          i += 1
        }
      }
      v += 1
    }
    val reduced = CsrGraph.fromEdges(n, reducedEdges)
    metrics.globalDeletedVertices += deletedVertices
    metrics.globalDeletedEdges += g.m - reduced.m
    (reduced, dirtyDeletions)
  }
}
