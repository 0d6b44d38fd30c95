package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop, Test => ScTest}
import scala.util.Random

class DegeneracySpec extends AnyFunSuite {

  /** Reference core numbers by repeated naive peeling. */
  private def referenceCores(g: CsrGraph): Array[Int] = {
    val core = new Array[Int](g.n)
    val alive = Array.fill(g.n)(true)
    val deg = Array.tabulate(g.n)(g.degree)
    var k = 0
    var left = g.n
    while (left > 0) {
      var changed = true
      while (changed) {
        changed = false
        for (v <- 0 until g.n if alive(v) && deg(v) <= k) {
          alive(v) = false
          core(v) = k
          left -= 1
          g.neighbors(v).foreach(u => if (alive(u)) deg(u) -= 1)
          changed = true
        }
      }
      k += 1
    }
    core
  }

  /** Core numbers read off a peel order (Matula–Beck): a vertex's core
    * number is the largest count of later neighbours at or before it.
    */
  private def coresAlong(g: CsrGraph, order: Array[Int]): Array[Int] = {
    val pos = new Array[Int](g.n)
    order.indices.foreach(i => pos(order(i)) = i)
    val core = new Array[Int](g.n)
    var running = 0
    for (v <- order) {
      running = math.max(running, g.neighbors(v).count(w => pos(w) > pos(v)))
      core(v) = running
    }
    core
  }

  private def gnp(n: Int, p: Double, seed: Long): CsrGraph = {
    val rnd = new Random(seed)
    val es = for { i <- 0 until n; j <- (i + 1) until n if rnd.nextDouble() < p } yield (i, j)
    CsrGraph.fromEdges(n, es)
  }

  test("order is a permutation") {
    val g = gnp(40, 0.2, 1)
    val d = Degeneracy.decompose(g)
    assert(d.order.sorted.toSeq == (0 until 40))
  }

  test("degeneracy order property: each vertex has ≤ λ later neighbours") {
    for (seed <- 1 to 10) {
      val g = gnp(30, 0.3, seed)
      val d = Degeneracy.decompose(g)
      val relabelled = g.relabelled(d.order)
      for (v <- 0 until g.n)
        assert(relabelled.laterDegree(v) <= d.degeneracy,
          s"seed=$seed v=$v later=${relabelled.laterDegree(v)} λ=${d.degeneracy}")
    }
  }

  test("peel-order properties: suffix degree bounded by core, cores nondecreasing") {
    // The Batagelj–Zaveršnik peel (clamped decrements) is the standard
    // BKdegen ordering: it guarantees (a) core numbers are nondecreasing
    // along the order and (b) each vertex has at most core(v) ≤ λ
    // neighbours later in the order — the property the O(3^(λ/3)) bound
    // rests on. (Strict per-step min-degree is not guaranteed by the
    // clamped variant and is not needed.)
    val g = gnp(25, 0.25, 7)
    val d = Degeneracy.decompose(g)
    val core = referenceCores(g)
    val pos = Array.ofDim[Int](g.n)
    d.order.zipWithIndex.foreach { case (v, i) => pos(v) = i }
    for (i <- 0 until g.n - 1)
      assert(core(d.order(i)) <= core(d.order(i + 1)),
        s"core numbers must be nondecreasing along the order at $i")
    for (i <- 0 until g.n) {
      val v = d.order(i)
      val suffixDeg = g.neighbors(v).count(w => pos(w) > i)
      assert(suffixDeg <= core(v),
        s"order($i)=$v has $suffixDeg later neighbours > core ${core(v)}")
    }
  }

  test("core numbers match naive peeling") {
    val prop = Prop.forAll(Gen.choose(2, 30), Gen.choose(0.05, 0.6), Gen.choose(0L, 9999L)) {
      (n, p, seed) =>
        val g = gnp(n, p, seed)
        val d = Degeneracy.decompose(g)
        coresAlong(g, d.order).toSeq == referenceCores(g).toSeq && d.degeneracy == referenceCores(g).max
    }
    val res = ScTest.check(ScTest.Parameters.default.withMinSuccessfulTests(60), prop)
    assert(res.passed, res.status.toString)
  }

  test("known degeneracies") {
    // Complete graph K5: λ = 4
    val k5 = CsrGraph.fromEdges(5, for (i <- 0 until 5; j <- (i + 1) until 5) yield (i, j))
    assert(Degeneracy.degeneracy(k5) == 4)
    // Path: λ = 1
    val path = CsrGraph.fromEdges(6, (0 until 5).map(i => (i, i + 1)))
    assert(Degeneracy.degeneracy(path) == 1)
    // Cycle: λ = 2
    val cyc = CsrGraph.fromEdges(6, (0 until 6).map(i => (i, (i + 1) % 6)))
    assert(Degeneracy.degeneracy(cyc) == 2)
    // Star: λ = 1
    val star = CsrGraph.fromEdges(6, (1 until 6).map(i => (0, i)))
    assert(Degeneracy.degeneracy(star) == 1)
    // Edgeless graph: λ = 0
    val empty = CsrGraph.fromEdges(3, Seq.empty)
    assert(Degeneracy.degeneracy(empty) == 0)
  }

  test("triangular torus is 6-regular with degeneracy ≥ 3") {
    val g = repro.gen.GraphGen.triangularTorus(6, 6).toCsr
    assert((0 until g.n).forall(v => g.degree(v) == 6))
    assert(Degeneracy.degeneracy(g) >= 3)
  }
}
