package repro.core

import repro.graph.CsrGraph

/** Global reduction (Section 4): low-degree vertex reduction (Alg. 5,
  * Lemmas 1–3) interleaved with non-triangle edge reduction (Alg. 6,
  * Lemma 4) until a joint fix-point.
  *
  * Every deleted vertex/edge has its maximal cliques reported to the sink
  * *before* deletion, preserving the invariant
  * `mc(G) = mc(G′) + α(ΔV, ΔE)`. The fix-point interleave is the paper's
  * Example 4 ("after deleting edges (u4,v5),(v5,u8), vertex v5 becomes a new
  * degree-two vertex") taken to completion: edge deletions re-feed the
  * low-degree queue and vertex deletions can expose new non-triangle edges.
  * Iterating to a joint fix-point only *increases* the reduction yield;
  * each rule application is justified against the current graph, so the
  * invariant is unaffected. Both rules stay applicable once applicable
  * (deletions only lower degrees and break triangles), so the fix-point, and
  * with it every report, does not depend on the order rules fire in.
  *
  * Representation: the input CSR stays immutable. Each undirected edge has
  * two directed slots, one in each endpoint's row, and `rev(p)` is the slot
  * of the same edge in the other row, built in one cursor pass. Deleting an
  * edge marks both of its slots dead, and deleting a vertex does so for each
  * of its live edges, so an edge is alive iff its slot is: no search and no
  * hashing. Degrees are counters, and the low-degree FIFO is a primitive
  * array that holds each vertex at most once.
  *
  * Triangle closure: an edge is deleted only when it lies in no live
  * triangle, or with an endpoint, so if two edges of a triangle of the
  * input are live, the third is too. Hence deleting an edge breaks no live
  * triangle and needs no row merge, and an input edge that closes a
  * triangle with two live edges is live without looking at its slot.
  *
  * The non-triangle rule runs as one pass with the paper's visited-triangle
  * marking. Each live edge is tested from its endpoint `h` of higher static
  * degree (ties by id): `h`'s row is stamped once with each neighbour's
  * slot, and the other endpoint's row is scanned up to the first live slot
  * to a stamped neighbour. That is the arboricity-bounded triangle test of
  * Chiba & Nishizeki (SIAM J. Comput. 1985), O(Σ min(d_u, d_v)) = O(m·α) in
  * all, and it stops at the first witness instead of listing triangles.
  * After the pass every live edge lies in a live triangle, and by closure it
  * can only lose its last one when a degree-two vertex of that triangle is
  * deleted. Lemma 3 tests the opposite edge at exactly that moment (the one
  * lookup left, by binary search in the shorter row), so the fix-point needs
  * no re-probe queue.
  *
  * The reduced graph keeps the input's vertex ids, so its edges compare
  * directly with the input's: a deleted vertex stays as a degree-0 vertex,
  * and `Rmce.prepare` leaves those out of the graph it hands the search. It
  * is the input graph itself when nothing was deleted. The deletion counts
  * go to `metrics` (`globalDeletedVertices`, `globalDeletedEdges`), the one
  * record of a run's counters.
  */
object GlobalReduction {

  final case class Result(reduced: CsrGraph)

  def apply(g: CsrGraph, sink: CliqueSink, metrics: Metrics): Result = {
    val n = g.n
    val adj = g.adj
    val off = g.offsets
    val rev = reverseSlots(g)
    val deg = new Array[Int](n)
    var v = 0
    while (v < n) { deg(v) = off(v + 1) - off(v); v += 1 }
    val removedSlot = new Array[Boolean](adj.length)
    val buf = new Array[Int](3)
    var deletedVertices = 0
    var deletedEdges = 0L

    def report2(a: Int, b: Int): Unit = {
      buf(0) = a; buf(1) = b
      sink.report(buf, 2)
      metrics.preReportedGlobal += 1
    }
    def report3(a: Int, b: Int, c: Int): Unit = {
      buf(0) = a; buf(1) = b; buf(2) = c
      sink.report(buf, 3)
      metrics.preReportedGlobal += 1
    }

    // Degrees only fall and a dequeued vertex is deleted (or was isolated
    // from the start), so each vertex enters the FIFO at most once.
    val queue = new Array[Int](n)
    var qHead = 0
    var qTail = 0
    val queued = new Array[Boolean](n)
    def enqueueIfLow(v: Int): Unit =
      if (!queued(v) && deg(v) <= 2) {
        queued(v) = true; queue(qTail) = v; qTail += 1
      }

    def shorter(a: Int, b: Int): Int = if (off(a + 1) - off(a) <= off(b + 1) - off(b)) a else b

    /** Slot of edge (a, b), by binary search in the shorter row, or -1. */
    def slotOf(a: Int, b: Int): Int = {
      val row = shorter(a, b)
      val p = java.util.Arrays.binarySearch(adj, off(row), off(row + 1), if (row == a) b else a)
      if (p >= 0) p else -1
    }

    /** Deletes the edge of slot `p`, which lies in no live triangle. */
    def removeEdge(p: Int): Unit = {
      val q = rev(p)
      removedSlot(p) = true; removedSlot(q) = true
      deletedEdges += 1
      val a = adj(q); val b = adj(p)
      deg(a) -= 1; deg(b) -= 1
      enqueueIfLow(a); enqueueIfLow(b)
    }

    def removeVertex(v: Int): Unit = {
      var i = off(v)
      val end = off(v + 1)
      while (i < end) {
        if (!removedSlot(i)) {
          removedSlot(i) = true; removedSlot(rev(i)) = true
          deletedEdges += 1
          val u = adj(i)
          deg(u) -= 1
          enqueueIfLow(u)
        }
        i += 1
      }
      deg(v) = 0
      deletedVertices += 1
    }

    /** The (up to) two live neighbours of a degree-≤2 vertex. */
    val nbr2 = new Array[Int](2)
    def liveNeighbors2(v: Int): Unit = {
      var k = 0
      var i = off(v)
      val end = off(v + 1)
      while (i < end && k < 2) {
        if (!removedSlot(i)) { nbr2(k) = adj(i); k += 1 }
        i += 1
      }
    }

    /** Whether the live edge (a, b) has a live common neighbour other than
      * `skip`: each live neighbour of the shorter row is looked up in the
      * shorter of its own row and the other endpoint's, and by closure the
      * edge found is live.
      */
    def hasWitness(a: Int, b: Int, skip: Int): Boolean = {
      val s = shorter(a, b)
      val t = if (s == a) b else a
      var i = off(s)
      val end = off(s + 1)
      while (i < end) {
        val c = adj(i)
        if (c != skip && !removedSlot(i) && slotOf(c, t) >= 0) return true
        i += 1
      }
      false
    }

    /** Alg. 5 over the pending queue (handles cascades). */
    def vertexReduction(): Unit = {
      while (qHead < qTail) {
        val v = queue(qHead)
        qHead += 1
        val d = deg(v)
        if (d == 0) {
          // Lemma 1 — all its cliques were reported when its edges went.
          if (g.degree(v) > 0) removeVertex(v)
        } else if (d == 1) {
          // Lemma 2: {v,u} is a maximal 2-clique.
          liveNeighbors2(v)
          report2(v, nbr2(0))
          removeVertex(v)
        } else {
          // Lemma 3, three scenarios.
          liveNeighbors2(v)
          val u = nbr2(0); val w = nbr2(1)
          val p = slotOf(u, w)
          if (p < 0) {
            report2(v, u); report2(v, w)
            removeVertex(v)
          } else if (!hasWitness(u, w, skip = v)) {
            // {v,u,w} is the last clique over edge (u,w): delete it too so
            // {u,w} is never reported as a (non-maximal) 2-clique later.
            report3(v, u, w)
            removeVertex(v)
            removeEdge(p)
          } else {
            // (u,w) keeps a witness c; only c's deletion, as a degree-2
            // vertex, can take it away, and that Lemma 3 step tests (u,w).
            report3(v, u, w)
            removeVertex(v)
          }
        }
      }
    }

    /** Alg. 6, one pass with the paper's visited-triangle marking: once an
      * edge is seen inside a triangle, its two sibling edges need no test of
      * their own. `visited` is indexed by the canonical slot `min(p,
      * rev(p))`; `stamp(c) == h + 1` means `c` is in `h`'s row, at slot
      * `stampSlot(c)`.
      */
    def edgePass(): Unit = {
      val visited = new Array[Boolean](adj.length)
      val stamp = new Array[Int](n)
      val stampSlot = new Array[Int](n)
      def visit(p: Int): Unit = visited(math.min(p, rev(p))) = true
      var h = 0
      while (h < n) {
        if (deg(h) > 0) {
          val dh = off(h + 1) - off(h)
          var stamped = false
          var p = off(h)
          val end = off(h + 1)
          while (p < end) {
            val l = adj(p)
            val dl = off(l + 1) - off(l)
            if (!removedSlot(p) && (dl < dh || (dl == dh && l < h)) && !visited(math.min(p, rev(p)))) {
              if (!stamped) {
                var r = off(h)
                while (r < end) { stamp(adj(r)) = h + 1; stampSlot(adj(r)) = r; r += 1 }
                stamped = true
              }
              var q = off(l)
              val qEnd = off(l + 1)
              while (q < qEnd && (removedSlot(q) || stamp(adj(q)) != h + 1)) q += 1
              if (q == qEnd) {
                report2(math.min(h, l), math.max(h, l))
                removeEdge(p)
              } else {
                visit(p); visit(q); visit(stampSlot(adj(q)))
              }
            }
            p += 1
          }
        }
        h += 1
      }
    }

    // Low-degree peel, one edge pass, then the peel it re-feeds.
    v = 0
    while (v < n) { enqueueIfLow(v); v += 1 }
    vertexReduction()
    edgePass()
    vertexReduction()

    val reduced = if (deletedEdges == 0) g else g.withoutSlots(removedSlot)
    metrics.globalDeletedVertices += deletedVertices
    metrics.globalDeletedEdges += deletedEdges
    Result(reduced)
  }

  /** `rev(p)`: the slot of edge `p` in its other endpoint's row. Visiting
    * rows in increasing id order reaches each row's smaller neighbours in
    * increasing order, so one cursor per row pairs the slots.
    */
  private def reverseSlots(g: CsrGraph): Array[Int] = {
    val adj = g.adj
    val off = g.offsets
    val rev = new Array[Int](adj.length)
    val cursor = java.util.Arrays.copyOf(off, g.n)
    var u = 0
    while (u < g.n) {
      var p = g.split(u)
      val end = off(u + 1)
      while (p < end) {
        val v = adj(p)
        val q = cursor(v)
        rev(p) = q; rev(q) = p
        cursor(v) = q + 1
        p += 1
      }
      u += 1
    }
    rev
  }
}
