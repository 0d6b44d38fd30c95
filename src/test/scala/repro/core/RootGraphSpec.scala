package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.CsrGraph
import TestGraphs._

/** The per-root local graph against a brute-force restriction: for every
  * root of a degeneracy-relabelled graph, with `X` whole and thinned (as
  * Alg. 8 thins it), the local ids follow label order, every row is the
  * neighbourhood restricted as documented, and the id table maps back.
  */
class RootGraphSpec extends AnyFunSuite {

  private def checkAllRoots(g0: CsrGraph, name: String): Unit = {
    val prepared = Rmce.prepare(g0, RmceConfig.baseline(RecursionKind.Degen), new CountingSink, new Metrics(g0.n))
    val g = prepared.graph
    val local = new RootGraph(g, prepared.toOrig) // one instance for every root, as the search uses it
    for (i <- 0 until g.n; thin <- Seq(false, true)) {
      val p = g.laterNeighbors(i)
      val x = g.earlierNeighbors(i).zipWithIndex.collect { case (v, k) if !thin || k % 2 == 0 => v }
      val labels = x.toSeq ++ Seq(i) ++ p.toSeq
      val (pLabels, xLabels) = (p.toSeq, x.toSeq)
      local.build(i, x, p)
      val at = s"$name root $i thin=$thin"
      val nx = xLabels.size
      assert(local.nx == nx && local.size == labels.size, at)
      assert(x.toSeq == (0 until nx) && p.toSeq == (nx + 1 until labels.size), s"$at: P/X not rewritten")
      assert((0 until local.size).map(local.orig(_)) == labels.map(prepared.toOrig(_)), s"$at: id table")
      def row(l: Int): Seq[Int] = (local.off(l) until local.off(l + 1)).map(local.adj(_))
      for (l <- 0 until local.size) {
        val want =
          if (l < nx) (nx + 1 until local.size).filter(m => g.hasEdge(labels(l), labels(m)))
          else if (l == nx) Seq.empty
          else (0 until local.size).filter(m => m != nx && g.hasEdge(labels(l), labels(m)))
        assert(row(l) == want, s"$at: row of local $l (label ${labels(l)})")
      }
      assert(pLabels.forall(_ > i) && xLabels.forall(_ < i))
    }
  }

  test("local rows equal the brute-force restriction on G(n, p)") {
    for ((n, p) <- Seq((18, 0.15), (20, 0.4), (14, 0.8)); seed <- 1 to 4)
      checkAllRoots(gnp(n, p, seed), s"gnp($n, $p, $seed)")
  }

  test("local rows equal the brute-force restriction with hubs beside a planted clique") {
    checkAllRoots(hubbedClique(core = 60, p = 0.08, k = 40, hubs = 3, seed = 11), "hubbed-k40")
    checkAllRoots(hubbedClique(core = 30, p = 0.1, k = 8, hubs = 5, seed = 3), "hubbed-k8")
  }
}
