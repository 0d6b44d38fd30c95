package repro.core

import repro.graph.CsrGraph

/** The subgraph of one root subproblem in local ids, as Eppstein, Löffler &
  * Strash build it per degeneracy root ("Listing all maximal cliques in
  * sparse graphs in near-optimal time", ISAAC 2010).
  *
  * For root `i` with `P = N⁺(i)` and the forbidden set `X′` that Alg. 8
  * leaves, `U = X′ ∪ {i} ∪ P` is numbered in label order: `X′` takes
  * `0 until nx`, `i` takes `nx`, `P` takes `nx + 1 until size`. `X′` labels
  * are below `i` and `P` labels above it, so the numbering is monotone, and
  * every merge, pivot tie, branch order and pre-report of the search is the
  * one it has on labels.
  *
  * Row `l` is `adj[off(l), off(l + 1))`, sorted. A `P` member's row is
  * `N(v) ∩ U \ {i}`, an `X′` member's row is `N(x) ∩ P`, and `i`'s row is
  * empty. That is all the search reads: below the root, candidates are a
  * subset of `P` and forbidden vertices a subset of `X′ ∪ P`; pivots are
  * scored against `P`, and only rows of `P` members are intersected with
  * `X`. A row then costs at most `|U|` entries, not a hub's degree.
  *
  * The rows come from the later-neighbour halves alone: an edge of `U`
  * joins a lower label to one of its `N⁺`, and `|N⁺(v)| ≤ λ` in degeneracy
  * order, however large `N(v)` is. Row `l` is its lower partners, then its
  * upper ones (those in `N⁺`). One scan of the `N⁺` halves, in increasing
  * `l`, writes each row's upper partners straight into their place: when
  * row `l` comes up, every lower row has been scanned, so its start and
  * the size of its lower part are known. A second pass reads those upper
  * parts back, not the graph, and fills the lower parts by transposing
  * them; taking the lower endpoints in increasing id, every row comes out
  * sorted (as in [[repro.graph.CsrGraph.relabelled]]). So a root costs
  * `O(|U| + Σ_{v ∈ U} |N⁺(v)|)`.
  *
  * One instance serves every root of an `Engine`. `adj` grows only when a
  * root could need more room than it has (twice a bound on the upper
  * parts' total, which bounds where the scan writes), and then at least
  * doubles, so an `Engine` allocates at most about twice its largest rows.
  */
private[core] final class RootGraph(g: CsrGraph, toOrig: Array[Int]) {
  /** The largest `|U|`: a root's neighbourhood plus the root. */
  val maxSize: Int = g.maxDegree + 1
  var adj: Array[Int] = Engine.EmptyInts
  val off: Array[Int] = new Array[Int](maxSize + 1)
  /** Local id → original id (through `toOrig`). */
  val orig: Array[Int] = new Array[Int](maxSize)
  /** `|X′|`, which is also the root's local id. */
  var nx: Int = 0
  /** `|U|`. */
  var size: Int = 0
  private val label = new Array[Int](maxSize)
  private val cursor = new Array[Int](maxSize)
  /** Label → local id of a current `X′` or `P` member, else -1. */
  private val localOf = new Array[Int](g.n)
  java.util.Arrays.fill(localOf, -1)

  /** Build root `i`'s rows from its sorted `X′ = s[xOff, xOff+xLen)` and
    * sorted `P = s[pOff, pOff+pLen)`, and rewrite both slices in place from
    * labels to local ids.
    */
  def build(i: Int, s: Array[Int], xOff: Int, xLen: Int, pOff: Int, pLen: Int): Unit = {
    nx = xLen
    size = nx + 1 + pLen
    System.arraycopy(s, xOff, label, 0, nx)
    label(nx) = i
    System.arraycopy(s, pOff, label, nx + 1, pLen)
    // Row l has at most min(|N⁺(label l)|, |P members above l|) upper partners.
    var upperBound = 0
    var l = 0
    while (l < size) {
      if (l != nx) {
        localOf(label(l)) = l
        upperBound += math.min(g.laterDegree(label(l)), if (l < nx) pLen else size - 1 - l)
      }
      l += 1
    }
    if (adj.length < 2 * upperBound) adj = new Array[Int](math.max(2 * upperBound, 2 * adj.length))

    // Upper parts: an edge {l, m} with m in N⁺(label l) enters when m is a
    // P member. `cursor(l)` counts row l's lower partners until row l
    // comes up. X′–X′ edges enter no row, and i has no local id here.
    java.util.Arrays.fill(cursor, 0, size, 0)
    var end = 0
    l = 0
    while (l < size) {
      off(l) = end
      end += cursor(l)
      if (l != nx) {
        var j = g.split(label(l))
        val until = g.offsets(label(l) + 1)
        while (j < until) {
          val m = localOf(g.adj(j))
          if (m > nx) { adj(end) = m; end += 1; cursor(m) += 1 }
          j += 1
        }
      }
      l += 1
    }
    off(size) = end

    // Lower parts, lower endpoints in increasing id. When row l comes up,
    // its lower part is full, so `cursor(l)` is where its upper part starts.
    l = 0
    while (l < size) { cursor(l) = off(l); l += 1 }
    l = 0
    while (l < size) {
      var q = cursor(l)
      val until = off(l + 1)
      while (q < until) {
        val m = adj(q)
        adj(cursor(m)) = l; cursor(m) += 1
        q += 1
      }
      l += 1
    }

    l = 0
    while (l < size) {
      if (l != nx) localOf(label(l)) = -1
      orig(l) = toOrig(label(l))
      l += 1
    }
    l = 0
    while (l < nx) { s(xOff + l) = l; l += 1 }
    l = 0
    while (l < pLen) { s(pOff + l) = nx + 1 + l; l += 1 }
  }
}
