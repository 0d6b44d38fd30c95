package repro.gen

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.Degeneracy

class GraphGenSpec extends AnyFunSuite {

  private def wellFormed(g: GraphGen.GeneratedGraph): Unit = {
    assert(g.edges.forall { case (a, b) => a < b }, "edges must be canonical")
    assert(g.edges.distinct.length == g.edges.length, "no duplicate edges")
    val touched = g.edges.flatMap(e => Seq(e._1, e._2)).toSet
    assert(touched == (0 until g.n).toSet, "ids compact, no isolated vertices")
  }

  test("powerLawCluster: well-formed and deterministic") {
    val a = GraphGen.powerLawCluster(500, 4, 0.5, 11)
    val b = GraphGen.powerLawCluster(500, 4, 0.5, 11)
    wellFormed(a)
    assert(a.edges.toSeq == b.edges.toSeq)
    assert(a.n == 500)
    // Roughly m edges per arriving vertex.
    assert(a.edges.length > 3 * 450 && a.edges.length < 5 * 500)
  }

  test("powerLawCluster: closure raises degeneracy") {
    val low = GraphGen.powerLawCluster(800, 4, 0.0, 3)
    val high = GraphGen.powerLawCluster(800, 4, 0.9, 3)
    assert(Degeneracy.degeneracy(high.toCsr) >= Degeneracy.degeneracy(low.toCsr))
  }

  test("powerLawCluster: heavy-tailed degrees") {
    val g = GraphGen.powerLawCluster(1500, 3, 0.3, 5).toCsr
    val dmax = g.maxDegree
    val avg = 2.0 * g.m / g.n
    assert(dmax > 6 * avg, s"expected a hub: dmax=$dmax avg=$avg")
  }

  test("cliqueUnion: well-formed, contains cliques") {
    val g = GraphGen.cliqueUnion(400, 150, 3, 6, 0.25, 13)
    wellFormed(g)
    val csr = g.toCsr
    assert(Degeneracy.degeneracy(csr) >= 2, "clique union must contain triangles")
  }

  test("grid2d: triangle-free with max degree 4") {
    val g = GraphGen.grid2d(8, 9)
    wellFormed(g)
    assert(g.n == 72)
    assert(g.edges.length == 8 * 8 + 7 * 9)
    val csr = g.toCsr
    assert(csr.maxDegree <= 4)
    assert(Degeneracy.degeneracy(csr) == 2)
  }

  test("triangularTorus: 6-regular, every edge in a triangle") {
    val g = GraphGen.triangularTorus(6, 7)
    wellFormed(g)
    assert(g.n == 42)
    val csr = g.toCsr
    assert((0 until csr.n).forall(csr.degree(_) == 6))
    assert(csr.m == 3L * 42)
    // every edge has a common neighbour
    g.edges.foreach { case (u, v) =>
      assert((csr.neighbors(u).toSet intersect csr.neighbors(v).toSet).nonEmpty,
        s"edge ($u,$v) not in a triangle")
    }
  }

  test("withFringe adds the requested degree-1/2 mass") {
    val core = GraphGen.triangularTorus(6, 6)
    val g = GraphGen.withFringe(core, 30, 20, 99)
    wellFormed(g)
    assert(g.n == core.n + 50)
    val csr = g.toCsr
    val d1 = (0 until csr.n).count(csr.degree(_) == 1)
    val d2 = (0 until csr.n).count(csr.degree(_) == 2)
    assert(d1 >= 30, s"expected ≥30 pendants, got $d1")
    assert(d2 >= 15, s"expected most degree-2 bridges, got $d2")
  }

  test("compact drops self-loops, dedupes and renumbers") {
    val g = GraphGen.compact(Seq((5, 5), (10, 3), (3, 10), (10, 20)))
    assert(g.n == 3)
    assert(g.edges.length == 2)
  }
}
