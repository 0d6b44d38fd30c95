package repro.core

import repro.graph.CsrGraph

/** Reference maximal clique enumeration for tests: the original pivotless
  * Bron–Kerbosch recursion over immutable `Set[Int]`, plus direct
  * clique/maximality predicates. Exponential — only for small graphs.
  *
  * Note the paper's convention (proof of Lemma 1): a clique has at least two
  * vertices. Graphs are built from edge lists, so isolated vertices never
  * occur and every maximal clique automatically has ≥ 2 vertices; the
  * convention never actually bites.
  */
object BruteForce {

  def maximalCliques(g: CsrGraph): Set[Set[Int]] = {
    val nbrs = Array.tabulate(g.n)(v => g.neighbors(v).toSet)
    val out = Set.newBuilder[Set[Int]]

    def bk(r: Set[Int], p: Set[Int], x: Set[Int]): Unit = {
      if (p.isEmpty && x.isEmpty) { if (r.size >= 2) out += r }
      else {
        var curP = p
        var curX = x
        p.foreach { v =>
          if (curP.contains(v)) {
            bk(r + v, curP intersect nbrs(v), curX intersect nbrs(v))
            curP -= v
            curX += v
          }
        }
      }
    }

    bk(Set.empty, (0 until g.n).toSet, Set.empty)
    out.result()
  }

  /** The same recursion with Tomita's pivot (branch only on `P \ N(u)` for
    * a `u ∈ P ∪ X` with the most neighbours in `P`; Tomita et al., TCS
    * 2006). Pivotless BK visits every subset of a planted clique, so this
    * is the reference for graphs with a clique of tens of vertices.
    */
  def maximalCliquesPivoted(g: CsrGraph): Set[Set[Int]] = {
    val nbrs = Array.tabulate(g.n)(v => g.neighbors(v).toSet)
    val out = Set.newBuilder[Set[Int]]

    def bk(r: Set[Int], p: Set[Int], x: Set[Int]): Unit = {
      if (p.isEmpty && x.isEmpty) { if (r.size >= 2) out += r }
      else if (p.nonEmpty) {
        val pivot = (p ++ x).maxBy(u => (p intersect nbrs(u)).size)
        var curP = p
        var curX = x
        (p -- nbrs(pivot)).foreach { v =>
          bk(r + v, curP intersect nbrs(v), curX intersect nbrs(v))
          curP -= v
          curX += v
        }
      }
    }

    bk(Set.empty, (0 until g.n).toSet, Set.empty)
    out.result()
  }

  def isClique(g: CsrGraph, s: Set[Int]): Boolean = {
    val vs = s.toArray
    var i = 0
    while (i < vs.length) {
      var j = i + 1
      while (j < vs.length) {
        if (!g.hasEdge(vs(i), vs(j))) return false
        j += 1
      }
      i += 1
    }
    true
  }

  def isMaximalClique(g: CsrGraph, s: Set[Int]): Boolean =
    isClique(g, s) && (0 until g.n).forall { v =>
      s.contains(v) || !s.forall(u => g.hasEdge(u, v))
    }
}
