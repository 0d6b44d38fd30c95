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
  * order, however large `N(v)` is. One pass counts each row, a second
  * scatters each edge into both rows; taking the lower endpoints in
  * increasing id, every row comes out sorted (as in
  * [[repro.graph.CsrGraph.relabelled]]). So a root costs
  * `O(|U| + Σ_{v ∈ U} |N⁺(v)|)`.
  *
  * One instance serves every root of an `Engine`. `adj` grows only when a
  * root's rows hold more entries than it, to that count.
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

  /** Build root `i`'s rows, and rewrite `x` (sorted `X′`) and `p` (sorted
    * `P`) in place from labels to local ids.
    */
  def build(i: Int, x: Array[Int], p: Array[Int]): Unit = {
    nx = x.length
    size = nx + 1 + p.length
    System.arraycopy(x, 0, label, 0, nx)
    label(nx) = i
    System.arraycopy(p, 0, label, nx + 1, p.length)
    var l = 0
    while (l < size) { if (l != nx) localOf(label(l)) = l; l += 1 }

    // Count: an edge {l, m} with m in N⁺(label l) enters rows l and m when
    // m is a P member. X′–X′ edges enter no row, and i has no local id here.
    java.util.Arrays.fill(off, 0, size + 1, 0)
    l = 0
    while (l < size) {
      if (l != nx) {
        var j = g.split(label(l))
        val end = g.offsets(label(l) + 1)
        while (j < end) {
          val m = localOf(g.adj(j))
          if (m > nx) { off(l + 1) += 1; off(m + 1) += 1 }
          j += 1
        }
      }
      l += 1
    }
    l = 0
    while (l < size) { off(l + 1) += off(l); cursor(l) = off(l); l += 1 }
    if (adj.length < off(size)) adj = new Array[Int](off(size))

    // Scatter, lower endpoints in increasing id.
    l = 0
    while (l < size) {
      if (l != nx) {
        var j = g.split(label(l))
        val end = g.offsets(label(l) + 1)
        while (j < end) {
          val m = localOf(g.adj(j))
          if (m > nx) {
            adj(cursor(l)) = m; cursor(l) += 1
            adj(cursor(m)) = l; cursor(m) += 1
          }
          j += 1
        }
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
    while (l < nx) { x(l) = l; l += 1 }
    l = 0
    while (l < p.length) { p(l) = nx + 1 + l; l += 1 }
  }
}
