package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop, Test => ScTest}
import repro.graph.CsrGraph
import TestGraphs._

/** Every algorithm configuration must report exactly the brute-force set of
  * maximal cliques — on fixed graphs, on random G(n,p) across densities, and
  * on mixed-regime graphs that trigger every reduction rule. Duplicates are
  * caught because the collected sequence length must equal the set size.
  */
class RmceCorrectnessSpec extends AnyFunSuite {

  /** Run a scalacheck property inside a funsuite test (plain scalacheck —
    * the scalatestplus bridge is not available offline).
    */
  private def checkProp(prop: Prop, minSuccessful: Int): Unit = {
    val params = ScTest.Parameters.default.withMinSuccessfulTests(minSuccessful)
    val res = ScTest.check(params, prop)
    assert(res.passed, s"property failed: ${res.status}")
  }

  private def check(g: CsrGraph, label: String): Unit =
    checkExpected(g, label, BruteForce.maximalCliques(g))

  private def checkExpected(g: CsrGraph, label: String, expected: Set[Set[Int]]): Unit =
    allConfigs.foreach { cfg =>
      val sink = new CollectingSink
      Rmce.run(g, cfg, sink)
      assert(sink.cliques.size == sink.asSet.size,
        s"$label/${cfg.label}: duplicate cliques reported")
      assert(sink.asSet == expected,
        s"$label/${cfg.label}: wrong clique set" +
          s"\n  missing: ${(expected -- sink.asSet).take(5)}" +
          s"\n  extra:   ${(sink.asSet -- expected).take(5)}")
    }

  private val fixed = Seq(
    "figure2" -> figure2, "paw" -> paw, "diamond" -> diamond, "k4" -> k4,
    "k6" -> k6, "path5" -> path5, "cycle6" -> cycle6, "star5" -> star5,
    "singleEdge" -> singleEdge)

  fixed.foreach { case (name, g) =>
    test(s"all 32 configs match brute force on $name") { check(g, name) }
  }

  test("figure2 has the cliques worked out in the paper's Example 2") {
    val mc = BruteForce.maximalCliques(figure2)
    assert(mc.contains(Set(0, 1, 2, 3))) // {u1,u2,u3,u4}
    assert(mc.contains(Set(0, 1, 2, 4))) // {u1,u2,u3,u5}
    assert(mc.contains(Set(3, 9)))       // {u4,u10} — the pendant 2-clique
  }

  test("prepare hands the search only the vertices that keep an edge, in degeneracy order") {
    val cfg = RmceConfig.rmce(RecursionKind.Degen)
    def prepare(g: CsrGraph): Rmce.Prepared = Rmce.prepare(g, cfg, new CountingSink, new Metrics(g.n))

    // Grid: global reduction deletes every vertex and pre-reports every edge.
    val grid = repro.gen.GraphGen.grid2d(12, 15).toCsr
    val gridPrepared = prepare(grid)
    assert(gridPrepared.graph.n == 0 && gridPrepared.toOrig.isEmpty)
    val gridSink = new CountingSink
    Rmce.run(grid, cfg, gridSink)
    assert(gridSink.count == grid.m)

    // Torus: nothing is deleted, so every vertex stays.
    val torus = repro.gen.GraphGen.triangularTorus(6, 8).toCsr
    val torusPrepared = prepare(torus)
    assert(torusPrepared.graph.n == torus.n && torusPrepared.graph.m == torus.m)

    for (seed <- 1 to 10) {
      val g = mixed(seed)
      val p = prepare(g)
      val res = GlobalReduction(g, new CountingSink, new Metrics(g.n))
      val reduced = res.reduced
      val withEdges = (0 until reduced.n).filter(reduced.degree(_) > 0).toSet
      assert((0 until p.graph.n).forall(p.graph.degree(_) > 0), s"mixed-$seed: a degree-0 vertex")
      assert(p.toOrig.length == p.graph.n && p.toOrig.distinct.length == p.toOrig.length,
        s"mixed-$seed: toOrig not injective")
      assert(p.graph.n == withEdges.size, s"mixed-$seed: n' != vertices with edges in G'")
      assert(p.toOrig.toSeq ==
        repro.graph.Degeneracy.decompose(reduced).order.toSeq.filter(withEdges).map(res.toOrig(_)),
        s"mixed-$seed: not the degeneracy order of G' restricted to vertices with edges")
      assert(p.graph.edges.map { case (u, v) => Set(p.toOrig(u), p.toOrig(v)) }.toSet ==
        reduced.edges.map { case (u, v) => Set(res.toOrig(u), res.toOrig(v)) }.toSet, s"mixed-$seed: edges")
    }
  }

  test("all configs match brute force on sparse G(n,p)") {
    for (seed <- 1 to 8) check(gnp(18, 0.12, seed), s"gnp18-sparse-$seed")
  }

  test("all configs match brute force on medium G(n,p)") {
    for (seed <- 1 to 8) check(gnp(16, 0.35, seed), s"gnp16-med-$seed")
  }

  test("all configs match brute force on dense G(n,p)") {
    for (seed <- 1 to 6) check(gnp(13, 0.65, seed), s"gnp13-dense-$seed")
  }

  test("all configs match brute force on near-complete graphs") {
    for (seed <- 1 to 4) check(gnp(10, 0.9, seed), s"gnp10-nearK-$seed")
  }

  test("all configs match brute force on mixed-regime graphs") {
    for (seed <- 1 to 10) check(mixed(seed), s"mixed-$seed")
  }

  test("all configs report exactly one clique on K40") {
    checkExpected(complete(40), "k40", Set((0 until 40).toSet))
  }

  test("all configs match the closed form on K40 with a pendant fringe") {
    val (g, expected) = completeWithFringe(40, pendants = 12, bridges = 6)
    checkExpected(g, "k40-fringe", expected)
  }

  test("all configs match brute force on a K20 planted in G(60, 0.2)") {
    check(plantedClique(60, 0.2, 20, seed = 7), "planted-k20")
  }

  test("all configs match brute force on a planted K40 beside a sparse core, with hubs") {
    val g = hubbedClique(core = 60, p = 0.08, k = 40, hubs = 3, seed = 11)
    val expected = BruteForce.maximalCliquesPivoted(g)
    assert(expected.forall(BruteForce.isMaximalClique(g, _)))
    checkExpected(g, "hubbed-k40", expected)
    // (recursive calls, dynamic pre-reports), recorded when the search still
    // merged over global rows: the per-root local ids keep label order, so
    // the search tree must not change.
    val want = Seq(
      RmceConfig.rmce(RecursionKind.Degen) -> (116L, 85L),
      RmceConfig.baseline(RecursionKind.Degen) -> (469L, 0L),
      RmceConfig.rmce(RecursionKind.Rcd) -> (111L, 78L),
      RmceConfig.baseline(RecursionKind.Rcd) -> (228L, 0L))
    for ((cfg, counts) <- want) {
      val m = Rmce.run(g, cfg, new CountingSink)
      assert((m.recursiveCalls, m.preReportedDynamic) == counts, cfg.label)
    }
  }

  test("all configs report the 3^5 transversals of Moon-Moser 3x5") {
    val g = moonMoser(5)
    val expected = BruteForce.maximalCliques(g)
    assert(expected.size == 243)
    assert(expected.forall(c => c.size == 5 && c.map(_ / 3).size == 5))
    checkExpected(g, "moon-moser-3x5", expected)
  }

  test("property: random graphs across the density range") {
    val genGraph = for {
      n <- Gen.choose(4, 15)
      p <- Gen.choose(0.05, 0.8)
      seed <- Gen.choose(0L, 1000000L)
    } yield (n, p, seed)
    checkProp(Prop.forAll(genGraph) { case (n, p, seed) =>
      check(gnp(n, p, seed), s"prop-$n-$p-$seed")
      true
    }, minSuccessful = 60)
  }

  test("counting sink checksum distinguishes different clique sets") {
    val a = enumerate(k4, RmceConfig.baseline(RecursionKind.Degen))
    val s1 = new CountingSink
    val s2 = new CountingSink
    Rmce.run(k4, RmceConfig.rmce(RecursionKind.Degen), s1)
    Rmce.run(diamond, RmceConfig.rmce(RecursionKind.Degen), s2)
    assert(a == Set(Set(0, 1, 2, 3)))
    assert(s1.checksum != s2.checksum)
  }

  test("counting sink checksum is identical across all configs (big graph)") {
    val g = gnp(40, 0.25, 42)
    val sums = allConfigs.map { cfg =>
      val s = new CountingSink
      Rmce.run(g, cfg, s)
      (cfg.label, s.count, s.checksum)
    }
    val counts = sums.map(_._2).distinct
    val checks = sums.map(_._3).distinct
    assert(counts.size == 1, s"clique counts diverge: $sums")
    assert(checks.size == 1, s"checksums diverge: $sums")
  }
}
