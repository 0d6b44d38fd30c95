package repro.core

import repro.graph.IntSets

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
  * would report nothing. The call then empties `P` and leaves `X` as it
  * is (it still holds `x`), without paying the degree scan. On a dense
  * core this prunes the same calls that BK's pivot scan prunes.
  *
  * '''Slices.''' `P` and `X` are sorted slices of one int array (the
  * search's [[FrameStack]]); [[apply]] narrows both in place and writes
  * the vertices it removes from `P` to a third slice, so it allocates
  * nothing. It returns the new `|P|`; [[xLen]], [[removedLen]] and
  * [[hoisted]] give the rest of the outcome.
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
  private var outX = 0
  private var outRemoved = 0
  private var outHoisted = 0

  /** `|X|` after the last [[apply]]: a Lemma 8 hoist keeps only its neighbours. */
  def xLen: Int = outX
  /** How many vertices the last [[apply]] removed from `P` by rules 1-2 and
    * wrote, sorted, from its `remOff`. The caller treats them as part of
    * `X`: they are adjacent to all of `R` but are no longer candidates.
    */
  def removedLen: Int = outRemoved
  /** How many Lemma 8 vertices the last [[apply]] pushed onto `R`. */
  def hoisted: Int = outHoisted

  /** Reduce `(R, P, X)` with `P = s[pOff, pOff+pLen)` and
    * `X = s[xOff, xOff+xLen)`: both stay sorted and shrink in place, the
    * removed vertices go to `s[remOff, …)` (room for `pLen` ints, outside
    * both slices), and hoisted vertices are pushed onto `r`. Returns the
    * new `|P|`.
    */
  def apply(adj: Array[Int], off: Array[Int], r: IntStack,
            s: Array[Int], pOff: Int, pLen: Int, xOff: Int, xLen: Int, remOff: Int,
            sink: CliqueSink, metrics: Metrics): Int = {
    outX = xLen; outRemoved = 0; outHoisted = 0
    if (pLen == 0 || DynamicReduction.covers(adj, off, s, pOff, pLen, s, xOff, xLen)) return 0
    gen += 1
    val myGen = gen
    val pEnd = pOff + pLen

    var i = pOff
    while (i < pEnd) { inP(s(i)) = myGen; i += 1 }

    // Degree scan: degP/onlyNbr for every v ∈ P, and whether any vertex can
    // trigger a rule at all (degree 0, 1, or |P|-1).
    var anyLow = false
    var anyFull = false
    i = pOff
    while (i < pEnd) {
      val v = s(i)
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
      if (d == pLen - 1) anyFull = true
      i += 1
    }

    // Pass 1: dynamic degree-0 (Lemma 5) and relaxed degree-1 (Lemma 7).
    // Marks read X before pass 2 narrows it.
    var nDropped = 0
    if (anyLow) {
      i = pOff
      while (i < pEnd) {
        val v = s(i)
        if (dropped(v) != myGen) {
          if (degP(v) == 0) {
            if (!marked(adj, off, v, s, xOff, xLen, myGen)) {
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
            if (!marked(adj, off, v, s, xOff, xLen, myGen) || !marked(adj, off, u, s, xOff, xLen, myGen)) {
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

    var p1Len = pLen
    var nRemoved = 0
    if (nDropped > 0) {
      // Survivors close up in place; the dropped vertices go to the removed
      // slice, in P's order.
      var k = pOff
      i = pOff
      while (i < pEnd) {
        val v = s(i)
        if (dropped(v) != myGen) { s(k) = v; k += 1 }
        else { s(remOff + nRemoved) = v; nRemoved += 1 }
        i += 1
      }
      p1Len = k - pOff
      // Patch the survivors' degrees: a dropped vertex had at most one
      // P-neighbour, `onlyNbr`. Pass 1 has ended, so it no longer reads them.
      i = remOff
      while (i < remOff + nRemoved) {
        val v = s(i)
        if (degP(v) == 1 && dropped(onlyNbr(v)) != myGen) degP(onlyNbr(v)) -= 1
        i += 1
      }
      anyFull = false
      i = pOff
      while (i < k) { if (degP(s(i)) == p1Len - 1) anyFull = true; i += 1 }
    }

    // Pass 2: dynamic degree-(|P′|−1) (Lemma 8) over the (possibly shrunk)
    // candidate set. A vertex adjacent to all others stays adjacent to all
    // others as peers get hoisted, so a single scan finds the full hoist
    // set; the survivors close up in place.
    var hoisted = 0
    var x1Len = xLen
    if (anyFull) {
      val full = p1Len - 1
      val end = pOff + p1Len
      var k = pOff
      i = pOff
      while (i < end) {
        val v = s(i)
        if (degP(v) == full) {
          r.push(v)
          hoisted += 1
          x1Len = IntSets.intersectInto(s, xOff, xOff + x1Len, adj, off(v), off(v + 1), s, xOff)
          // A removed vertex has at most one P-neighbour, so this keeps
          // only those whose one P-neighbour is v; binary probes suffice.
          var kept = 0
          var j = 0
          while (j < nRemoved) {
            val u = s(remOff + j)
            if (IntSets.contains(adj, off(v), off(v + 1), u)) { s(remOff + kept) = u; kept += 1 }
            j += 1
          }
          nRemoved = kept
        } else {
          s(k) = v; k += 1
        }
        i += 1
      }
      p1Len = k - pOff
      // Every hoisted vertex was adjacent to every survivor.
      i = pOff
      while (i < k) { degP(s(i)) -= hoisted; i += 1 }
    }
    outX = x1Len; outRemoved = nRemoved; outHoisted = hoisted
    p1Len
  }

  /** N(v) ∩ X ≠ ∅, memoised per call. */
  private def marked(adj: Array[Int], off: Array[Int], v: Int,
                     s: Array[Int], xOff: Int, xLen: Int, myGen: Int): Boolean = {
    if (markKnown(v) != myGen) {
      markKnown(v) = myGen
      markVal(v) = IntSets.intersectSize(adj, off(v), off(v + 1), s, xOff, xOff + xLen) > 0
    }
    markVal(v)
  }

  /** `|N(v) ∩ P|` for `v` in the `P` the last [[apply]] left, while that
    * `P` is not empty: the degree scan's count, patched for the vertices
    * the rules removed or hoisted. The pivot scan reads it instead of
    * merging again.
    */
  def degreeInP(v: Int): Int = degP(v)
}

object DynamicReduction {

  /** Does some `x ∈ X = x[xOff, xOff+xLen)` cover `P = p[pOff, pOff+pLen)`
    * (`P ⊆ N(x)`)? Each test stops at the first `P` vertex missing from
    * `N(x)`. It probes `N(x)` by binary search, or merges once
    * `|P|·log₂ deg(x) > deg(x)`.
    */
  def covers(adj: Array[Int], off: Array[Int],
             p: Array[Int], pOff: Int, pLen: Int, x: Array[Int], xOff: Int, xLen: Int): Boolean = {
    val pEnd = pOff + pLen
    var i = xOff
    while (i < xOff + xLen) {
      val from = off(x(i))
      val until = off(x(i) + 1)
      val d = until - from
      if (d >= pLen) {
        val log2d = 32 - Integer.numberOfLeadingZeros(d)
        if (pLen.toLong * log2d > d) {
          if (IntSets.subsetOfExcluding(p, pOff, pEnd, -1, adj, from, until)) return true
        } else {
          var j = pOff
          while (j < pEnd && IntSets.contains(adj, from, until, p(j))) j += 1
          if (j == pEnd) return true
        }
      }
      i += 1
    }
    false
  }
}
