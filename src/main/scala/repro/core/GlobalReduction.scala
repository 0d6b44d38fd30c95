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
  * two directed slots, one in each endpoint's row. A slot is live iff its
  * `removedSlot` flag is clear and its neighbour is not peeled (`gone`).
  * Deleting an edge marks both of its slots, the partner found by one
  * binary search in the other row. Deleting a vertex (of degree
  * at most two, whose live neighbours the rule has just found) only sets
  * its `gone` flag, so the ~n peels of a sparse graph write no row and need
  * no index from a slot to its partner; no one reads a deleted vertex's row
  * again. Degrees are counters (a vertex's degree is the number of live
  * slots in its row), and the low-degree FIFO is a primitive array that
  * holds each vertex at most once.
  *
  * Triangle closure: an edge is deleted only when it lies in no live
  * triangle, or with an endpoint, so if two edges of a triangle of the
  * input are live, the third is too. Hence deleting an edge breaks no live
  * triangle and needs no row merge, and an input edge that closes a
  * triangle with two live edges is live without looking at its slots.
  *
  * The non-triangle rule runs as one pass. Each live edge is tested from
  * its endpoint `h` of higher static degree (ties by id): `h`'s row is
  * stamped once, and the other endpoint's row is scanned up to the first
  * live neighbour that is stamped. That is the arboricity-bounded triangle
  * test of Chiba & Nishizeki (SIAM J. Comput. 1985), O(Σ min(d_u, d_v)) =
  * O(m·α) in all, and it stops at the first witness instead of listing
  * triangles. Alg. 6 also marks the two sibling edges of each witness
  * triangle as visited, to skip their tests. By closure those siblings
  * still have that witness when their turn comes, so the marks change no
  * deletion; on cliques the reduction cannot touch they cost more than the
  * tests they skip (2m flags and three random writes per triangle found),
  * so the pass does without them. A scan that finds no witness has read
  * the other endpoint's whole row, `h`'s slot in it too, yet the deletion
  * still finds that slot by binary search: noting it during the scan costs
  * a compare per scanned slot, and on a dense core, where nearly every scan
  * ends at a witness, that made the reduction slower. After each `h` the
  * pass runs the peels its deletions fed: a vertex they delete is gone
  * before the pass reaches it, and its edges are never tested. Since the
  * fix-point does not depend on rule order, this changes no deletion and
  * no report.
  *
  * After the pass every live edge lies in a live triangle, and by closure
  * it can only lose its last one when a degree-two vertex of that triangle
  * is deleted. Lemma 3 tests the opposite edge at exactly that moment (by
  * binary search in the shorter row), so the fix-point needs no re-probe
  * queue.
  *
  * The deletion counts go to `metrics` (`globalDeletedVertices`,
  * `globalDeletedEdges`), the one record of a run's counters.
  */
object GlobalReduction {

  /** `reduced` holds the vertices that keep an edge, numbered in increasing
    * input id; `toOrig(v)` is the input id of its vertex `v`. It is the
    * input graph itself, with the identity table, when the reduction
    * deletes nothing and the input has no isolated vertex.
    */
  final case class Result(reduced: CsrGraph, toOrig: Array[Int])

  def apply(g: CsrGraph, sink: CliqueSink, metrics: Metrics): Result = {
    val n = g.n
    val adj = g.adj
    val off = g.offsets
    val deg = new Array[Int](n)
    var isolated = 0
    var v = 0
    while (v < n) {
      deg(v) = off(v + 1) - off(v)
      if (deg(v) == 0) isolated += 1
      v += 1
    }
    val removedSlot = new Array[Boolean](adj.length)
    val gone = new Array[Boolean](n)
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

    // A vertex enters the FIFO once: at the start if its degree is <= 2,
    // or when its degree, which falls one edge at a time, reaches 2.
    val queue = new Array[Int](n)
    var qHead = 0
    var qTail = 0
    def enqueue(v: Int): Unit = { queue(qTail) = v; qTail += 1 }
    def lowerDegree(v: Int): Unit = {
      deg(v) -= 1
      if (deg(v) == 2) enqueue(v)
    }

    def live(p: Int): Boolean = !removedSlot(p) && !gone(adj(p))

    def shorter(a: Int, b: Int): Int = if (off(a + 1) - off(a) <= off(b + 1) - off(b)) a else b

    /** Slot of `b` in `a`'s row, or a negative number. */
    def find(a: Int, b: Int): Int = java.util.Arrays.binarySearch(adj, off(a), off(a + 1), b)

    /** Deletes the edge of slot `p` in `owner`'s row, which lies in no live
      * triangle.
      */
    def removeEdge(owner: Int, p: Int): Unit = {
      val other = adj(p)
      removedSlot(p) = true; removedSlot(find(other, owner)) = true
      deletedEdges += 1
      lowerDegree(owner); lowerDegree(other)
    }

    /** The (up to) two live neighbours of a degree-≤2 vertex. */
    val nbr2 = new Array[Int](2)
    def liveNeighbors2(v: Int): Unit = {
      var k = 0
      var i = off(v)
      val end = off(v + 1)
      while (i < end && k < 2) {
        if (live(i)) { nbr2(k) = adj(i); k += 1 }
        i += 1
      }
    }

    /** Deletes the degree-≤2 vertex `v` and its `deg(v)` live edges, to the
      * neighbours `liveNeighbors2(v)` put in `nbr2`. The neighbours' slots
      * to `v` die through `gone(v)`, and no one reads `v`'s row again.
      */
    def removeVertex(v: Int): Unit = {
      val d = deg(v)
      var k = 0
      while (k < d) { lowerDegree(nbr2(k)); k += 1 }
      deletedEdges += d
      gone(v) = true
      deg(v) = 0
      deletedVertices += 1
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
        if (c != skip && live(i)) {
          val r = shorter(c, t)
          if (find(r, if (r == c) t else c) >= 0) return true
        }
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
          val s = shorter(u, w)
          val p = find(s, if (s == u) w else u)
          if (p < 0) {
            report2(v, u); report2(v, w)
            removeVertex(v)
          } else if (!hasWitness(u, w, skip = v)) {
            // {v,u,w} is the last clique over edge (u,w): delete it too so
            // {u,w} is never reported as a (non-maximal) 2-clique later.
            report3(v, u, w)
            removeVertex(v)
            removeEdge(s, p)
          } else {
            // (u,w) keeps a witness c; only c's deletion, as a degree-2
            // vertex, can take it away, and that Lemma 3 step tests (u,w).
            report3(v, u, w)
            removeVertex(v)
          }
        }
      }
    }

    /** Alg. 6, one pass: every live edge is tested from its higher-degree
      * endpoint `h`, whose row is stamped (`stamp(c) == h + 1`) once. The
      * peels `h`'s deletions cause run before the next `h`.
      */
    def edgePass(): Unit = {
      val stamp = new Array[Int](n)
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
            if ((dl < dh || (dl == dh && l < h)) && live(p)) {
              if (!stamped) {
                var r = off(h)
                while (r < end) { stamp(adj(r)) = h + 1; r += 1 }
                stamped = true
              }
              var q = off(l)
              val qEnd = off(l + 1)
              while (q < qEnd && (stamp(adj(q)) != h + 1 || !live(q))) q += 1
              if (q == qEnd) {
                report2(math.min(h, l), math.max(h, l))
                removeEdge(h, p)
              }
            }
            p += 1
          }
          vertexReduction()
        }
        h += 1
      }
    }

    // Low-degree peel, then the edge pass with the peels it feeds.
    v = 0
    while (v < n) { if (deg(v) <= 2) enqueue(v); v += 1 }
    vertexReduction()
    edgePass()
    vertexReduction()

    metrics.globalDeletedVertices += deletedVertices
    metrics.globalDeletedEdges += deletedEdges
    if (deletedEdges == 0 && isolated == 0) Result(g, Array.range(0, n))
    else {
      val (reduced, toOrig) = g.compacted(removedSlot, gone)
      Result(reduced, toOrig)
    }
  }
}
