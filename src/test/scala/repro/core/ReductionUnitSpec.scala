package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.CsrGraph
import TestGraphs._

/** Direct unit tests of DynamicReduction and ForbiddenSetReduction (their
  * end-to-end behaviour is covered by RmceCorrectnessSpec).
  */
class ReductionUnitSpec extends AnyFunSuite {

  test("dynamic degree-zero: unmarked vertex reported, marked vertex dropped silently") {
    // Subproblem rooted at 0 in a paw + pendant: P holds an isolated-in-P
    // vertex with and without an X witness.
    // Graph: 0-1, 0-2, 0-3, 1-2 (so under root {0}: P ⊇ {1,2,3}).
    val g = CsrGraph.fromEdges(4, Seq((0, 1), (0, 2), (0, 3), (1, 2)))
    val dyn = new DynamicReduction(g.n)
    val r = new IntStack(); r.push(0)
    val reports = scala.collection.mutable.ArrayBuffer.empty[Set[Int]]
    val report: CliqueSink = (a, l) => reports += a.take(l).toSet
    val m = new Metrics(g.n)
    // P = {1,2,3}, X = {} — 3 is dynamic degree-0 and unmarked; {1,2} is a
    // mutual degree-one pair, so the rule also reports {0,1,2}.
    val out = dyn.apply(g.adj, g.offsets, r, Array(1, 2, 3), Array.empty, report, m)
    assert(reports.contains(Set(0, 3)))
    assert(reports.contains(Set(0, 1, 2)))
    assert(!out.p.contains(3))
    assert(out.removed.toSeq == Seq(1, 2, 3))
    assert(m.preReportedDynamic == 2)
  }

  test("dynamic degree-zero: marked vertex is removed without a report") {
    // X = {1}, P = {2} with 2 adjacent to 1 ⇒ marked, dropped silently.
    val g = CsrGraph.fromEdges(3, Seq((0, 1), (0, 2), (1, 2)))
    val dyn = new DynamicReduction(g.n)
    val r = new IntStack(); r.push(0)
    val reports = scala.collection.mutable.ArrayBuffer.empty[Set[Int]]
    val out = dyn.apply(g.adj, g.offsets, r, Array(2), Array(1), (a, l) => reports += a.take(l).toSet, new Metrics(3))
    assert(reports.isEmpty)
    assert(out.p.isEmpty)
    // 1 covers P, so the barren exit fires: nothing is removed, X keeps 1.
    assert(out.removed.isEmpty && out.x.toSeq == Seq(1))
  }

  test("dynamic degree-zero: marked vertex joins removed without a report") {
    // X = {1}, P = {2,3}: 2 is marked by 1, 3 is not; 1 does not cover P.
    val g = CsrGraph.fromEdges(4, Seq((0, 1), (0, 2), (0, 3), (1, 2)))
    val dyn = new DynamicReduction(g.n)
    val r = new IntStack(); r.push(0)
    val reports = scala.collection.mutable.ArrayBuffer.empty[Set[Int]]
    val out = dyn.apply(g.adj, g.offsets, r, Array(2, 3), Array(1), (a, l) => reports += a.take(l).toSet, new Metrics(4))
    assert(reports.toSeq == Seq(Set(0, 3)))
    assert(out.p.isEmpty && out.hoisted == 0)
    assert(out.removed.toSeq == Seq(2, 3) && out.x.toSeq == Seq(1))
  }

  test("dynamic degree-(|P|-1) hoists the full-degree vertices and intersects X") {
    // Root 0 of figure2-like core: P = {1,2,3,4} forming K4 ⇒ all hoisted.
    val g = k6
    val dyn = new DynamicReduction(g.n)
    val r = new IntStack(); r.push(0)
    val out = dyn.apply(g.adj, g.offsets, r, Array(1, 2, 3, 4, 5), Array.empty,
      (_, _) => fail("no report expected"), new Metrics(g.n))
    assert(out.hoisted == 5)
    assert(out.p.isEmpty)
    assert(r.size == 6)
  }

  test("dynamic degree-one pair: reported once, both removed when mutual") {
    // P = {1,2} adjacent only to each other, X empty.
    val g = CsrGraph.fromEdges(3, Seq((0, 1), (0, 2), (1, 2)))
    val dyn = new DynamicReduction(g.n)
    val r = new IntStack(); r.push(0)
    val reports = scala.collection.mutable.ArrayBuffer.empty[Set[Int]]
    val out = dyn.apply(g.adj, g.offsets, r, Array(1, 2), Array.empty, (a, l) => reports += a.take(l).toSet, new Metrics(3))
    // {0,1,2} reported by the degree-one rule, pair removed, nothing hoisted.
    assert(reports.toSeq == Seq(Set(0, 1, 2)))
    assert(out.p.isEmpty && out.hoisted == 0)
    assert(out.removed.toSeq == Seq(1, 2))
  }

  /** R = {0}, P = {a, b, c, d} = {1, 2, 3, 4}: the triangle abc and the edge
    * d–a, with d unmarked. Lemma 7 drops d (reporting {0, a, d}); a's degree
    * in P then falls from 3 to 2, so a, b and c are all hoisted by Lemma 8.
    * In `dropLiftsHoist` the vertices 5..10 form a K6 that gives every
    * vertex but 0 degree 5 or more with every edge in a triangle, so global
    * reduction deletes nothing and 0, the one vertex of degree 4, is first
    * in degeneracy order: its root subproblem has exactly this P and X = ∅.
    */
  private val dropLiftsHoistCore = Seq((1, 2), (1, 3), (2, 3), (4, 1)) ++ (1 to 4).map((0, _))
  private val dropLiftsHoist = CsrGraph.fromEdges(11, dropLiftsHoistCore ++
    (for (i <- 5 to 10; j <- (i + 1) to 10) yield (i, j)) ++
    Seq((2, 5), (2, 6), (3, 7), (3, 8), (4, 9), (4, 10), (4, 5), (1, 6)))

  test("dynamic degree-(|P|-1) after a drop: the dropped vertex's partner is hoisted too") {
    val g = CsrGraph.fromEdges(5, dropLiftsHoistCore)
    val r = new IntStack(); r.push(0)
    val reports = scala.collection.mutable.ArrayBuffer.empty[Set[Int]]
    val out = new DynamicReduction(g.n).apply(g.adj, g.offsets, r, Array(1, 2, 3, 4), Array.empty,
      (a, l) => reports += a.take(l).toSet, new Metrics(g.n))
    assert(reports.toSeq == Seq(Set(0, 1, 4)))
    assert(out.hoisted == 3 && (0 until r.size).map(r(_)) == Seq(0, 1, 2, 3))
    assert(out.p.isEmpty && out.x.isEmpty && out.removed.isEmpty)
  }

  test("dynamic degree-(|P|-1) after a drop, facen bitset version via Rmce.run") {
    val g = dropLiftsHoist
    val cfg = RmceConfig.rmce(RecursionKind.Facen)
    val all = new CollectingSink
    Rmce.run(g, cfg, all)
    assert(all.cliques.toSet == BruteForce.maximalCliques(g) && all.cliques.size == all.cliques.toSet.size)

    val m = new Metrics(g.n)
    val root = new CollectingSink
    val prepared = Rmce.prepare(g, cfg, root, m)
    assert(m.globalDeletedEdges == 0 && prepared.toOrig(0) == 0)
    Rmce.runRoots(prepared, Seq(0), cfg, root, m)
    // One call: d is dropped, a, b, c hoisted, and {0, a, b, c} reported.
    assert(root.cliques.toSet == Set(Set(0, 1, 4), Set(0, 1, 2, 3)))
    assert(m.recursiveCalls == 1 && m.preReportedDynamic == 1)
  }

  /** R = {0}, P = {1..5}; vertex 1 is dynamic degree-1 with partner 2,
    * which has more P-neighbours and survives. Per case: the other P-edges,
    * X, the hoisted vertex (-1: none), and the expected P′ and removed set.
    *  - nothing else is low or full;
    *  - after 1 goes, 2 covers 3, 4, 5 and is hoisted; the pair {5, 2}
    *    stays because X = {6} marks both; 1 is adjacent to 2, so it stays;
    *  - after 1 goes, 3 covers 2, 4, 5 and is hoisted; 1 is not adjacent
    *    to 3, so it leaves.
    */
  private val partnerCases = Seq(
    ("no hoist", Seq((2, 3), (3, 4), (4, 5), (2, 5)), Seq.empty[Int], -1, Seq(2, 3, 4, 5), Seq(1)),
    ("the partner alone hoisted", Seq((2, 3), (2, 4), (2, 5), (3, 4)), Seq(6), 2, Seq(3, 4, 5), Seq(1)),
    ("a non-partner hoisted", Seq((2, 3), (3, 4), (3, 5), (4, 5)), Seq.empty[Int], 3, Seq(2, 4, 5), Seq.empty[Int]))

  for ((label, pEdges, x, hoist, wantP, wantRemoved) <- partnerCases) {
    test(s"dynamic degree-one vertex with a surviving partner, $label") {
      val xEdges = x.flatMap(v => Seq((0, v), (2, v), (5, v)))
      val g = CsrGraph.fromEdges(7, (1 to 5).map((0, _)) ++ Seq((1, 2)) ++ pEdges ++ xEdges)
      val r = new IntStack(); r.push(0)
      val reports = scala.collection.mutable.ArrayBuffer.empty[Set[Int]]
      val out = new DynamicReduction(g.n).apply(g.adj, g.offsets, r, Array(1, 2, 3, 4, 5), x.toArray,
        (a, l) => reports += a.take(l).toSet, new Metrics(g.n))
      assert(reports.toSeq == Seq(Set(0, 1, 2)))
      assert((1 until r.size).map(r(_)) == Seq(hoist).filter(_ >= 0) && out.hoisted == r.size - 1)
      assert(out.p.toSeq == wantP && out.x.toSeq == x)
      assert(out.removed.toSeq == wantRemoved)
    }
  }

  /** R = {0}, P = {2,3,4} with one P edge 2-3, X = {1}. Vertex 1 is
    * adjacent to 0, 2, 3 and (if `coverAll`) 4, plus `hubLeaves` extra
    * leaves, so its degree selects the merge (0) or binary-probe (40)
    * subset test.
    */
  private def barrenCase(coverAll: Boolean, hubLeaves: Int): CsrGraph = {
    val base = Seq((0, 1), (0, 2), (0, 3), (0, 4), (2, 3), (1, 2), (1, 3))
    val cover = if (coverAll) Seq((1, 4)) else Seq.empty
    val leaves = (0 until hubLeaves).map(j => (1, 5 + j))
    CsrGraph.fromEdges(5 + hubLeaves, base ++ cover ++ leaves)
  }

  for (hubLeaves <- Seq(0, 40)) {
    test(s"barren exit: an X vertex covering P empties P untouched (hub leaves $hubLeaves)") {
      val g = barrenCase(coverAll = true, hubLeaves)
      val r = new IntStack(); r.push(0)
      val m = new Metrics(g.n)
      val out = new DynamicReduction(g.n).apply(g.adj, g.offsets, r, Array(2, 3, 4), Array(1),
        (_, _) => fail("no report expected"), m)
      assert(out.p.isEmpty && out.removed.isEmpty)
      assert(out.x.toSeq == Seq(1))
      assert(out.hoisted == 0)
      assert(r.size == 1 && r(0) == 0)
      assert(m.preReportedDynamic == 0)
    }

    test(s"barren exit: an X vertex missing one P vertex does not fire (hub leaves $hubLeaves)") {
      val g = barrenCase(coverAll = false, hubLeaves)
      val r = new IntStack(); r.push(0)
      val reports = scala.collection.mutable.ArrayBuffer.empty[Set[Int]]
      val out = new DynamicReduction(g.n).apply(g.adj, g.offsets, r, Array(2, 3, 4), Array(1),
        (a, l) => reports += a.take(l).toSet, new Metrics(g.n))
      // 4 is degree-0 and unmarked, so {0,4} is reported; {2,3} is then
      // hoisted, X keeps 1, which is adjacent to both, and 4 leaves
      // removed, being adjacent to neither.
      assert(reports.toSeq == Seq(Set(0, 4)))
      assert(out.p.isEmpty && out.removed.isEmpty && out.hoisted == 2)
      assert(out.x.toSeq == Seq(1))
      assert(r.size == 3)
    }
  }

  /** Reference for the gated update: the same dominance records and chain
    * walk as [[ForbiddenSetReduction]], with both Alg. 8 rules tested for
    * every u ∈ P.
    */
  private final class UngatedForbidden(n: Int) {
    private val ignoreId = Array.fill(n)(n)
    private val domBy = Array.fill(n)(-1)

    private def prunable(x0: Int, w: Int): Boolean = {
      if (ignoreId(x0) >= w) return false
      val seen = scala.collection.mutable.Set(x0)
      var cur = x0
      while (true) {
        val d = domBy(cur)
        if (!seen.add(d)) return false
        if (ignoreId(d) >= w) return true
        cur = d
      }
      false
    }

    def reduceAndUpdate(g: CsrGraph, i: Int, p: Array[Int], x: Array[Int]): Array[Int] = {
      val x1 = x.filterNot(prunable(_, i))
      p.foreach { u =>
        val af = g.split(u)
        val au = g.offsets(u + 1)
        if (repro.graph.IntSets.subsetOfExcluding(p, 0, p.length, u, g.adj, af, au)) {
          if (u < ignoreId(i)) { ignoreId(i) = u; domBy(i) = u }
        } else if (repro.graph.IntSets.subsetOfExcluding(g.adj, af, au, -1, p, 0, p.length)) {
          if (i < ignoreId(u)) { ignoreId(u) = i; domBy(u) = i }
        }
      }
      x1
    }
  }

  test("gated Alg. 8 update reduces X exactly like the ungated loop") {
    val graphs =
      (1 to 6).map(s => gnp(30, 0.15, s)) ++ (1 to 6).map(s => gnp(25, 0.6, s)) ++
        (1 to 6).map(s => gnp(16, 0.9, s)) ++ (1 to 10).map(mixed(_))
    var pruned = 0
    graphs.zipWithIndex.foreach { case (g0, gi) =>
      val g = g0.relabelled(repro.graph.Degeneracy.decompose(g0).order)
      val gated = new ForbiddenSetReduction(g.n)
      val ungated = new UngatedForbidden(g.n)
      for (i <- 0 until g.n) {
        val p = g.laterNeighbors(i)
        val x = g.earlierNeighbors(i)
        val want = ungated.reduceAndUpdate(g, i, p, x)
        val got = gated.reduceAndUpdate(g, i, p, x)
        assert(got.toSeq == want.toSeq, s"graph $gi root $i")
        pruned += x.length - got.length
      }
    }
    assert(pruned > 0, "the graphs never exercise a prune")
  }

  test("forbidden set reduction never prunes on K6 (mutual dominance cycles)") {
    val d = repro.graph.Degeneracy.decompose(k6)
    val g = k6.relabelled(d.order)
    val fsr = new ForbiddenSetReduction(g.n)
    for (i <- 0 until g.n) {
      val p = g.laterNeighbors(i)
      val x = g.earlierNeighbors(i)
      val x1 = fsr.reduceAndUpdate(g, i, p, x)
      assert(x1.nonEmpty || x.isEmpty,
        s"root $i: forbidden set emptied by circular dominance — unsound")
    }
  }

  test("forbidden set reduction prunes a genuinely dominated vertex") {
    // Path-like order: 0-2, 1-2, 1-3, 2-3: under labels as order,
    // N+(0)={2} ⊆ N+(1)={2,3}; at root 2, X={0,1} and 0 is dominated by 1.
    val g = CsrGraph.fromEdges(4, Seq((0, 2), (1, 2), (1, 3), (2, 3)))
    val fsr = new ForbiddenSetReduction(g.n)
    // Simulate the iteration order 0,1,2,3 (labels are already the order).
    fsr.reduceAndUpdate(g, 0, g.laterNeighbors(0), g.earlierNeighbors(0))
    fsr.reduceAndUpdate(g, 1, g.laterNeighbors(1), g.earlierNeighbors(1))
    // Root 1 learns P\{2}={3} ⊆ N⁺(2), so vertex 1 is dominated by 2 at
    // every root after 2 — at root 3, X={1,2} loses 1 (its dominator 2 is
    // kept) but keeps 2.
    val x2 = fsr.reduceAndUpdate(g, 2, g.laterNeighbors(2), g.earlierNeighbors(2))
    assert(x2.toSeq == Seq(0, 1), s"no prune valid yet at root 2, got ${x2.toSeq}")
    val x3 = fsr.reduceAndUpdate(g, 3, g.laterNeighbors(3), g.earlierNeighbors(3))
    assert(x3.toSeq == Seq(2), s"expected {2} after pruning dominated 1, got ${x3.toSeq}")
  }

  test("IntStack push/pop/copy") {
    val s = new IntStack(2)
    (1 to 10).foreach(s.push)
    assert(s.size == 10)
    assert(s(0) == 1 && s(9) == 10)
    assert(s.pop() == 10)
    val buf = new Array[Int](16)
    assert(s.copyInto(buf) == 9)
    assert(buf.take(9).toSeq == (1 to 9))
    s.clear()
    assert(s.isEmpty)
    assertThrows[IllegalArgumentException](s.pop())
  }

  test("Bits helpers") {
    val arr = new Array[Long](4) // two 2-word masks
    Bits.setBit(arr, 0, 3); Bits.setBit(arr, 0, 70)
    Bits.setBit(arr, 2, 3)
    assert(Bits.testBit(arr, 0, 3) && Bits.testBit(arr, 0, 70) && !Bits.testBit(arr, 0, 4))
    assert(Bits.popcount(arr, 0, 2) == 2)
    assert(Bits.andPopcount(arr, 0, arr, 2, 2) == 1)
    assert(Bits.singleBitOfAnd(arr, 0, arr, 2, 2) == 3)
    val collected = scala.collection.mutable.ArrayBuffer.empty[Int]
    Bits.forEachBit(arr, 0, 2)(collected += _)
    assert(collected.toSeq == Seq(3, 70))
    Bits.clearBit(arr, 0, 3)
    assert(!Bits.testBit(arr, 0, 3))
    assert(!Bits.isEmpty(arr, 0, 2))
    val out = Bits.and(arr, 0, arr, 2, 2)
    assert(out.forall(_ == 0L))
  }

  test("CliqueSink.cliqueHash is order-independent and size-sensitive") {
    val a = CliqueSink.cliqueHash(Array(1, 2, 3), 3)
    val b = CliqueSink.cliqueHash(Array(3, 1, 2), 3)
    val c = CliqueSink.cliqueHash(Array(1, 2, 4), 3)
    val d = CliqueSink.cliqueHash(Array(1, 2), 2)
    assert(a == b)
    assert(a != c)
    assert(a != d)
  }

  test("Metrics merge sums counters and visit arrays") {
    val m1 = new Metrics(3); val m2 = new Metrics(3)
    m1.recursiveCalls = 5; m2.recursiveCalls = 7
    m1.visit(0); m2.visit(0); m2.visit(2)
    m1.merge(m2)
    assert(m1.recursiveCalls == 12)
    assert(m1.vertexVisits.toSeq == Seq(2L, 0L, 1L))
    assertThrows[IllegalArgumentException](m1.merge(new Metrics(4)))
  }

  test("Metrics.visitsByDegree buckets by supplied degrees") {
    val m = new Metrics(4)
    m.visit(0); m.visit(1); m.visit(1); m.visit(3)
    val byDeg = m.visitsByDegree(Array(2, 2, 5, 7))
    assert(byDeg == Map(2 -> 3L, 7 -> 1L))
  }
}
