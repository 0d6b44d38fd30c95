package repro.bench

import repro.SparkSpec
import repro.harness.Reports

/** Distributed pipeline demonstration: the full RMCE pipeline (collect →
  * driver-side global reduction and degeneracy order → broadcast CSR →
  * root-task farm) against the baseline through the same farm, on three of
  * the larger stand-ins. Wall-clock here includes Spark job scheduling, so
  * this bench validates plumbing and result equality at scale rather than
  * the algorithmic constants (those are Fig7SpeedupBench's job).
  */
class DistributedMceBench extends SparkSpec {

  test("Distributed RMCE pipeline on the larger stand-ins") {
    val (text, rows) = Reports.distributed(spark, Seq("co", "st", "wg"))
    println("\n=== Distributed pipeline (wall-clock incl. Spark overhead) ===")
    println(text)

    // Baseline and RMCE agree on clique counts per dataset.
    rows.groupBy(_.abbr).foreach { case (abbr, rs) =>
      assert(rs.map(_.cliques).distinct.size == 1, s"$abbr: clique counts diverge")
    }
    // Global reduction shrinks the broadcast graph on the reducible one.
    val wgRmce = rows.find(r => r.abbr == "wg" && r.algo.startsWith("RMCE")).get
    val wgBase = rows.find(r => r.abbr == "wg" && !r.algo.startsWith("RMCE")).get
    assert(wgRmce.reducedN < wgBase.reducedN,
      s"wg: distributed global reduction should shrink the task graph " +
        s"(${wgRmce.reducedN} vs ${wgBase.reducedN})")
  }
}
