package repro.core

import repro.graph.IntSets

/** Outcome of one dynamic-reduction application: the reduced `P` and `X`,
  * the vertices the degree-0/1 rules `removed` from `P` (sorted), and the
  * number of Lemma 8 vertices `hoisted` onto `R`. The caller treats
  * `removed` as part of `X`: those vertices are adjacent to all of `R` but
  * are no longer candidates.
  */
final class DynOutcome(
    val p: Array[Int],
    val x: Array[Int],
    val removed: Array[Int],
    val hoisted: Int)

/** Dynamic vertex reduction (Section 5, Alg. 7) for one subproblem
  * `(R, P, X)`:
  *
  *  1. dynamic degree-0 vertices (Lemma 5) — reported (if unmarked) and
  *     dropped from `P`;
  *  2. dynamic degree-1 vertices under the *relaxed* rule (Lemma 7) — the
  *     pair is reported and the vertex dropped when either endpoint has no
  *     neighbour in `X`;
  *  3. dynamic degree-(|P|−1) vertices (Lemma 8) — hoisted straight into
  *     `R`, with `X` and the removed vertices re-intersected against their
  *     neighbourhoods (Alg. 7 line 15).
  *
  * All three are preceded by a '''barren exit'''. If some `x ∈ X` is
  * adjacent to every vertex of `P`, every clique of the subtree extends by
  * `x`, so none is maximal; and every `P` vertex is marked, so rules 1-2
  * would report nothing. The call then returns an empty `P` and `X`
  * unchanged (it still holds `x`), without paying the degree scan. On a
  * dense core this prunes the same calls that BK's pivot scan prunes.
  *
  * A vertex `u ∈ P` is "marked" iff `N(u) ∩ X ≠ ∅`; marks are computed
  * *lazily* (only for the few degree-0/1 vertices and their P-neighbours)
  * and memoised per call, so the common case pays one generation-stamped
  * degree scan and nothing else. Scratch arrays are generation-stamped so
  * repeated calls never pay a clear.
  *
  * '''Maximality bookkeeping.''' A vertex dropped by rules 1-2 is adjacent
  * to all of `R`, so the caller puts it in `X`, as BK does with every vertex
  * it has finished with. It has at most one neighbour in `P`, so the pivot
  * scan leaves it out. The instance is stateful scratch space — one per
  * enumeration run (or per Spark task), never shared across threads.
  *
  * It works on any sorted-row graph `(adj, off)` whose ids are below `n`:
  * the search hands it a root's local rows ([[RootGraph]]), so `n` is the
  * largest root neighbourhood plus one. Reports go to `sink` in those ids.
  */
final class DynamicReduction(n: Int) {
  private val inP = new Array[Int](n)        // stamp: member of current P
  private val dropped = new Array[Int](n)    // stamp: removed from P this call
  private val degP = new Array[Int](n)       // |N(v) ∩ P| for v ∈ P
  private val onlyNbr = new Array[Int](n)    // the single P-neighbour when degP==1
  private val markKnown = new Array[Int](n)  // stamp: mark memoised this call
  private val markVal = new Array[Boolean](n)
  private val buf = new Array[Int](n)        // a report: R plus v, u (distinct ids)
  private var gen = 0

  def apply(adj: Array[Int], off: Array[Int], r: IntStack, p: Array[Int], x: Array[Int],
            sink: CliqueSink, metrics: Metrics): DynOutcome = {
    if (p.isEmpty) return new DynOutcome(p, x, Engine.EmptyInts, 0)
    if (DynamicReduction.covers(adj, off, p, x))
      return new DynOutcome(Engine.EmptyInts, x, Engine.EmptyInts, 0)
    gen += 1
    val myGen = gen

    var i = 0
    while (i < p.length) { inP(p(i)) = myGen; i += 1 }

    // Degree scan: degP/onlyNbr for every v ∈ P, and whether any vertex can
    // trigger a rule at all (degree 0, 1, or |P|-1).
    var anyLow = false
    var anyFull = false
    i = 0
    while (i < p.length) {
      val v = p(i)
      var d = 0
      var last = -1
      var j = off(v)
      val end = off(v + 1)
      while (j < end) {
        val w = adj(j)
        if (inP(w) == myGen) { d += 1; last = w }
        j += 1
      }
      degP(v) = d
      onlyNbr(v) = last
      if (d <= 1) anyLow = true
      if (d == p.length - 1) anyFull = true
      i += 1
    }

    /** N(v) ∩ X ≠ ∅, memoised per call. */
    def marked(v: Int): Boolean = {
      if (markKnown(v) != myGen) {
        markKnown(v) = myGen
        markVal(v) = IntSets.intersectSize(adj, off(v), off(v + 1), x, 0, x.length) > 0
      }
      markVal(v)
    }

    // Pass 1: dynamic degree-0 (Lemma 5) and relaxed degree-1 (Lemma 7).
    var nDropped = 0
    if (anyLow) {
      i = 0
      while (i < p.length) {
        val v = p(i)
        if (dropped(v) != myGen) {
          if (degP(v) == 0) {
            if (!marked(v)) {
              val len = r.copyInto(buf)
              buf(len) = v
              sink.report(buf, len + 1)
              metrics.preReportedDynamic += 1
            }
            dropped(v) = myGen
            nDropped += 1
          } else if (degP(v) == 1) {
            val u = onlyNbr(v)
            // u cannot already be dropped: a dropped degree-0 vertex has no
            // P-neighbour and a dropped degree-1 partner implies v is gone
            // too.
            if (!marked(v) || !marked(u)) {
              val len = r.copyInto(buf)
              buf(len) = v; buf(len + 1) = u
              sink.report(buf, len + 2)
              metrics.preReportedDynamic += 1
              dropped(v) = myGen
              nDropped += 1
              if (degP(u) == 1) { dropped(u) = myGen; nDropped += 1 } // its only neighbour was v
            }
          }
        }
        i += 1
      }
    }

    var p1 = p
    var removed = Engine.EmptyInts
    if (nDropped > 0) {
      p1 = new Array[Int](p.length - nDropped)
      removed = new Array[Int](nDropped)
      var k = 0
      var d = 0
      i = 0
      while (i < p.length) {
        val v = p(i)
        if (dropped(v) != myGen) { p1(k) = v; k += 1 }
        else { removed(d) = v; d += 1 }
        i += 1
      }
      // Patch the survivors' degrees: a dropped vertex had at most one
      // P-neighbour, `onlyNbr`. Pass 1 has ended, so it no longer reads them.
      i = 0
      while (i < removed.length) {
        val v = removed(i)
        if (degP(v) == 1 && dropped(onlyNbr(v)) != myGen) degP(onlyNbr(v)) -= 1
        i += 1
      }
      anyFull = false
      i = 0
      while (i < p1.length) { if (degP(p1(i)) == p1.length - 1) anyFull = true; i += 1 }
    }

    // Pass 2: dynamic degree-(|P′|−1) (Lemma 8) over the (possibly shrunk)
    // candidate set. A vertex adjacent to all others stays adjacent to all
    // others as peers get hoisted, so a single scan finds the full hoist
    // set.
    var hoisted = 0
    var x1 = x
    if (anyFull) {
      val keep = new Array[Int](p1.length)
      var k = 0
      var nRemoved = removed.length
      i = 0
      while (i < p1.length) {
        val v = p1(i)
        if (degP(v) == p1.length - 1) {
          r.push(v)
          hoisted += 1
          x1 = IntSets.intersect(x1, 0, x1.length, adj, off(v), off(v + 1))
          // A removed vertex has at most one P-neighbour, so this keeps
          // only those whose one P-neighbour is v; binary probes suffice.
          var kept = 0
          var j = 0
          while (j < nRemoved) {
            val u = removed(j)
            if (IntSets.contains(adj, off(v), off(v + 1), u)) { removed(kept) = u; kept += 1 }
            j += 1
          }
          nRemoved = kept
        } else {
          keep(k) = v; k += 1
        }
        i += 1
      }
      p1 = java.util.Arrays.copyOf(keep, k)
      if (nRemoved < removed.length) removed = java.util.Arrays.copyOf(removed, nRemoved)
      // Every hoisted vertex was adjacent to every survivor.
      i = 0
      while (i < k) { degP(p1(i)) -= hoisted; i += 1 }
    }
    new DynOutcome(p1, x1, removed, hoisted)
  }

  /** `|N(v) ∩ P|` for `v` in the `P` the last [[apply]] returned, while that
    * `P` is not empty: the degree scan's count, patched for the vertices
    * the rules removed or hoisted. The pivot scan reads it instead of
    * merging again.
    */
  def degreeInP(v: Int): Int = degP(v)
}

object DynamicReduction {

  /** Does some `x ∈ X` cover `P` (`P ⊆ N(x)`)? Each test stops at the first
    * `P` vertex missing from `N(x)`. It probes `N(x)` by binary search, or
    * merges once `|P|·log₂ deg(x) > deg(x)`.
    */
  def covers(adj: Array[Int], off: Array[Int], p: Array[Int], x: Array[Int]): Boolean = {
    var i = 0
    while (i < x.length) {
      val from = off(x(i))
      val until = off(x(i) + 1)
      val d = until - from
      if (d >= p.length) {
        val log2d = 32 - Integer.numberOfLeadingZeros(d)
        if (p.length.toLong * log2d > d) {
          if (IntSets.subsetOfExcluding(p, 0, p.length, -1, adj, from, until)) return true
        } else {
          var j = 0
          while (j < p.length && IntSets.contains(adj, from, until, p(j))) j += 1
          if (j == p.length) return true
        }
      }
      i += 1
    }
    false
  }
}
