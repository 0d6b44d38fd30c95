package repro.harness

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{RecursionKind, RmceConfig, TestGraphs}

class BenchRunnerSpec extends AnyFunSuite {

  test("timeLocal returns consistent stats") {
    val g = TestGraphs.mixed(3)
    val cfgs = Seq(RmceConfig.rmce(RecursionKind.Degen), RmceConfig.baseline(RecursionKind.Degen))
    val stats = BenchRunner.timeLocal("mixed3", g, cfgs, 3)
    assert(stats.map(_.algo) == Seq("RMCEdegen", "BKdegen"))
    stats.foreach { s =>
      assert(s.dataset == "mixed3")
      assert(s.timeMs > 0)
      assert(s.q1Ms <= s.timeMs && s.timeMs <= s.q3Ms, s"${s.algo}: median outside [q1, q3]")
      assert(s.cliques > 0)
      assert(s.metrics.forbiddenXKept <= s.metrics.forbiddenXTotal)
    }
    assert(stats.head.metrics.recursiveCalls <= stats(1).metrics.recursiveCalls)
  }

  test("timeLocal is deterministic in results across repetitions") {
    val g = TestGraphs.mixed(5)
    val cfg = Seq(RmceConfig.baseline(RecursionKind.Rcd))
    val Seq(a) = BenchRunner.timeLocal("m", g, cfg, 1)
    val Seq(b) = BenchRunner.timeLocal("m", g, cfg, 3)
    assert(a.cliques == b.cliques && a.checksum == b.checksum)
    assert(a.metrics.recursiveCalls == b.metrics.recursiveCalls)
  }

  test("config labels distinguish baselines, RMCE, and variants") {
    assert(RmceConfig.baseline(RecursionKind.Degen).label == "BKdegen")
    assert(RmceConfig.rmce(RecursionKind.Facen).label == "RMCEfacen")
    assert(RmceConfig.variant1(RecursionKind.Degen).label == "RMCEdegen-g")
    assert(RmceConfig.variant2(RecursionKind.Rcd).label == "RMCErcd-d")
    assert(RmceConfig.variant3(RecursionKind.Revised).label == "RMCErevised-m")
  }

  test("formatTable aligns columns and includes a separator") {
    val t = BenchRunner.formatTable(Seq("a", "bbbb"), Seq(Seq("xx", "y"), Seq("z", "wwwww")))
    val lines = t.split("\n")
    assert(lines.length == 4)
    assert(lines.map(_.length).distinct.size == 1, "all lines equal width")
    assert(lines(1).forall(c => c == '-' || c == ' '))
  }

  test("number formatting helpers") {
    assert(BenchRunner.f1(1.25) == "1.2" || BenchRunner.f1(1.25) == "1.3")
    assert(BenchRunner.f2(3.14159) == "3.14")
    assert(BenchRunner.pct(0.5) == "50.0%")
  }
}
