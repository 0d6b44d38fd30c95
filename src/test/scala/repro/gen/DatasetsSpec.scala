package repro.gen

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.Degeneracy

class DatasetsSpec extends AnyFunSuite {

  test("all 18 paper graphs have a stand-in") {
    assert(Datasets.all.size == 18)
    assert(Datasets.all.map(_.abbr).distinct.size == 18)
    assert(Datasets.byAbbr.keySet == Datasets.all.map(_.abbr).toSet)
  }

  test("abbreviations match the paper's Table 2") {
    assert(Datasets.all.map(_.abbr) == Seq("as", "ca", "cp", "cd", "co", "cy",
      "ee", "fl", "in", "lt", "lg", "rc", "sd", "sp", "st", "wg", "ws", "wt"))
  }

  test("generators are deterministic") {
    Datasets.all.foreach { d =>
      // Two fresh runs of the generator: `d.graph` is built once and cached.
      val a = d.gen()
      val b = d.gen()
      assert(a.n == b.n && a.edges.toSeq == b.edges.toSeq, s"${d.abbr} not deterministic")
    }
  }

  test("every stand-in is non-trivial and well-formed") {
    Datasets.all.foreach { d =>
      val g = d.graph
      assert(g.n >= 1000, s"${d.abbr}: too small (n=${g.n})")
      assert(g.edges.length.toLong >= g.n / 2, s"${d.abbr}: too sparse")
      assert(g.edges.forall { case (a, b) => a < b && b < g.n }, s"${d.abbr}: malformed edges")
    }
  }

  test("every stand-in CSR has no isolated vertex and one edge per generated pair") {
    // Table 2 reads n and m off the CSR; these two facts make them the vertex
    // and edge counts of the stand-in's canonical edge table.
    Datasets.all.foreach { d =>
      val g = d.graph
      val csr = g.toCsr
      assert((0 until csr.n).forall(csr.degree(_) > 0), s"${d.abbr}: isolated vertex")
      assert(csr.m == g.edges.length.toLong, s"${d.abbr}: duplicate generated edges")
    }
  }

  test("road stand-ins are triangle-free, low-degree (full-reduction regime)") {
    Seq("in", "rc").foreach { abbr =>
      val csr = Datasets.byAbbr(abbr).csr
      assert(csr.maxDegree <= 4, s"$abbr: road graphs have tiny degrees")
      assert(Degeneracy.degeneracy(csr) <= 3)
    }
  }

  test("delaunay stand-in has min degree ≥ 3 and every edge in a triangle (zero-reduction regime)") {
    val csr = Datasets.byAbbr("sd").csr
    assert((0 until csr.n).forall(csr.degree(_) >= 3))
  }

  test("social/web stand-ins have hubs and a reducible fringe") {
    Seq("as", "cy", "ee", "wg", "ws", "wt").foreach { abbr =>
      val csr = Datasets.byAbbr(abbr).csr
      val avg = 2.0 * csr.m / csr.n
      assert(csr.maxDegree > 4 * avg, s"$abbr: expected hub vertices")
      val lowDeg = (0 until csr.n).count(csr.degree(_) <= 2)
      assert(lowDeg > csr.n / 10, s"$abbr: expected a low-degree fringe, got $lowDeg/${csr.n}")
    }
  }

  test("dense stand-ins have no fringe to reduce") {
    Seq("co", "fl").foreach { abbr =>
      val csr = Datasets.byAbbr(abbr).csr
      val lowDeg = (0 until csr.n).count(csr.degree(_) <= 2)
      assert(lowDeg < csr.n / 50, s"$abbr: dense graphs should have almost no fringe")
    }
  }

  test("collaboration stand-ins are clique-rich") {
    Seq("ca", "cd").foreach { abbr =>
      val csr = Datasets.byAbbr(abbr).csr
      assert(Degeneracy.degeneracy(csr) >= 4, s"$abbr: expected overlapping cliques")
    }
  }

  test("paper statistics are recorded for side-by-side reporting") {
    Datasets.all.foreach { d =>
      assert(d.paperVertices > 0 && d.paperEdges > 0 && d.paperDmax > 0 && d.paperLambda > 0)
    }
    assert(Datasets.byAbbr("in").paperLambda == 3)
    assert(Datasets.byAbbr("fl").paperLambda == 573)
  }

  test("fig11 graphs are the paper's four") {
    assert(Datasets.fig11Abbrs == Seq("wg", "cp", "sp", "cd"))
  }
}
