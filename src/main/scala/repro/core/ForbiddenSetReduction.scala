package repro.core

import repro.graph.{CsrGraph, IntSets}

/** Maximality check reduction (Section 6, Alg. 8).
  *
  * Works on the degeneracy-relabelled graph, where a vertex's label *is* its
  * order: the root subproblem of vertex `i` has `P = N⁺(i)` (labels `> i`)
  * and `X = N⁻(i)` (labels `< i`).
  *
  * `ignoreId(v) = j` records (with `domBy(v)` the witnessing dominator) that
  * from every root after iteration `j`, some vertex `u ∈ X` satisfies
  * `N_P(v) ⊆ N_P(u)` — Lemma 9's neighbourhood dominance. Both update rules
  * of Alg. 8 are purely structural facts about `N⁺` sets:
  *
  *  - `P \ {u} ⊆ N⁺(u)` for some `u ∈ P = N⁺(i)`: any later root `w > u`
  *    with `i ∈ X_w` has `w ∈ N⁺(i) ⊆ N⁺(u) ∪ {u}` and `w ≠ u`, so
  *    `u ∈ X_w` too, and every `p ∈ P_w ∩ N(i)` is a later neighbour of
  *    `i`, hence of `u` — `u` dominates `i` ⇒ `ignoreId(i) ← min(·, u)`.
  *  - `N⁺(u) ⊆ P`: symmetric, root `i` dominates `u` from iteration `i`
  *    onwards ⇒ `ignoreId(u) ← min(·, i)`.
  *
  * '''Soundness fix over the paper's pseudo-code.''' Lemma 9 removes `u`
  * only while its dominator `v` *stays* in `X`. Applying the raw `ignoreId`
  * filter allows circular dominance — on K6 the two rules prune the entire
  * forbidden set (0 is dominated by 1, 1 by 2, 2 by 0 …), after which
  * non-maximal cliques are reported. We therefore record the dominating
  * vertex and, when filtering `X` at root `w`, walk the dominance chain:
  * a vertex is pruned only if the chain (every link valid at `w`, i.e.
  * `ignoreId < w`; every dominator provably in the same unreduced `X`, see
  * the derivations above; dominance transitive) terminates at a dominator
  * that is itself *kept*. Chains that cycle keep the vertex. This is
  * strictly conservative w.r.t. Lemma 9.
  *
  * Because validity is encoded as "prunable at any root with order greater
  * than the stored id", the arrays may be shared by any subset of roots
  * processed in any order — which makes per-partition reuse in the
  * distributed task farm sound (it merely prunes less than the sequential
  * schedule would).
  */
final class ForbiddenSetReduction(n: Int) {
  private val ignoreId: Array[Int] = Array.fill(n)(n)
  private val domBy: Array[Int] = Array.fill(n)(-1)
  private val walkStamp: Array[Int] = new Array[Int](n)
  private var gen = 0

  /** Is `x0` safely ignorable in the forbidden set of root `w`? */
  private def prunable(x0: Int, w: Int): Boolean = {
    if (ignoreId(x0) >= w) return false
    gen += 1
    var cur = x0
    walkStamp(cur) = gen
    while (true) {
      val d = domBy(cur)
      if (walkStamp(d) == gen) return false // dominance cycle — keep x0
      if (ignoreId(d) >= w) return true     // kept dominator reached — prune
      walkStamp(d) = gen
      cur = d
    }
    false // unreachable
  }

  /** Reduce `x` for root `i` and update the dominance records from its
    * candidate set (Alg. 8 lines 3-11).
    */
  def reduceAndUpdate(g: CsrGraph, i: Int, p: Array[Int], x: Array[Int]): Array[Int] = {
    var kept = 0
    var k = 0
    while (k < x.length) { if (!prunable(x(k), i)) kept += 1; k += 1 }
    val x1 =
      if (kept == x.length) x
      else {
        val out = new Array[Int](kept)
        var j = 0
        k = 0
        while (k < x.length) {
          val u = x(k)
          if (!prunable(u, i)) { out(j) = u; j += 1 }
          k += 1
        }
        out
      }

    // Rule 1 can hold only for u = p(0): N⁺(u) holds labels > u, so for
    // any later u it misses p(0). Rule 2 is tested only where it could take
    // effect: N⁺(u) ⊆ P means N⁺(u) ⊆ p(k+1..), so |N⁺(u)| ≤ |P| − 1 − k.
    // The outcome (ignoreId, domBy) is that of testing both rules, rule 2
    // only when rule 1 fails, for every u ∈ P.
    val adj = g.adj
    k = 0
    while (k < p.length) {
      val u = p(k)
      val af = g.split(u) // N⁺(u) starts here (labels > u)
      val au = g.offsets(u + 1)
      if (k == 0 && au - af >= p.length - 1 &&
          IntSets.subsetOfExcluding(p, 0, p.length, u, adj, af, au)) {
        if (u < ignoreId(i)) { ignoreId(i) = u; domBy(i) = u }
      } else if (i < ignoreId(u) && au - af <= p.length - 1 - k &&
          IntSets.subsetOfExcluding(adj, af, au, -1, p, k + 1, p.length)) {
        ignoreId(u) = i; domBy(u) = i
      }
      k += 1
    }
    x1
  }
}
