package repro.spark

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.core._
import repro.graph.CsrGraph

/** Differential tests: the distributed task farm must produce exactly the
  * clique multiset of a local `Rmce.run` over the same edges, for every
  * recursion and reduction setting, and must agree with brute force on
  * materialised cliques. Checksums are comparable because `CountingSink`
  * hashes `id.toLong` and the farm hashes the original ids of its compacted
  * graph; for ids above `Int.MaxValue` both sides hash through one id table.
  */
class DistributedMCESpec extends SparkSpec {

  private def df(edges: Seq[(Int, Int)]): DataFrame =
    dfLong(edges.map(e => (e._1.toLong, e._2.toLong)))

  private def dfLong(edges: Seq[(Long, Long)]): DataFrame = {
    val s = spark
    import s.implicits._
    edges.toDF("src", "dst")
  }

  /** Vertex ids spread above `Int.MaxValue`, so only the Long id table can
    * tell them apart.
    */
  private def shifted(id: Int): Long = id * (1L << 33) + 7

  private val mainConfigs = Seq(
    RmceConfig.baseline(RecursionKind.Degen),
    RmceConfig.rmce(RecursionKind.Degen),
    RmceConfig.rmce(RecursionKind.Rcd),
    RmceConfig.rmce(RecursionKind.Facen),
    RmceConfig.rmce(RecursionKind.Revised))

  private def assertSame(label: String, cfg: RmceConfig, d: DistributedMCE.Result,
                         count: Long, checksum: Long): Unit = {
    assert(d.cliqueCount == count, s"$label/${cfg.label}: count ${d.cliqueCount} != $count")
    assert(d.checksum == checksum, s"$label/${cfg.label}: checksum mismatch")
  }

  /** `DistributedMCE.run` against `Rmce.run` on the same Int edges, for every
    * config: same clique count and checksum, and the same global-reduction
    * counters (both sides run the same prepare).
    */
  private def checkDistVsLocal(g: CsrGraph, label: String): Unit =
    mainConfigs.foreach { cfg =>
      val d = DistributedMCE.run(spark, df(g.edges.toSeq), cfg, numTasks = 7)
      val sink = new CountingSink
      val local = Rmce.run(g, cfg, sink)
      assertSame(label, cfg, d, sink.count, sink.checksum)
      assert(d.metrics.preReportedGlobal == local.preReportedGlobal &&
        d.metrics.globalDeletedVertices == local.globalDeletedVertices &&
        d.metrics.globalDeletedEdges == local.globalDeletedEdges,
        s"$label/${cfg.label}: global-reduction counters differ")
    }

  test("distributed equals local on mixed-regime graphs") {
    for (seed <- 1 to 3) checkDistVsLocal(TestGraphs.mixed(seed), s"mixed-$seed")

    // Ids above Int.MaxValue: the local run and brute force hash through the
    // same id table as the farm.
    val g = TestGraphs.mixed(1)
    val wide = dfLong(g.edges.toSeq.map(e => (shifted(e._1), shifted(e._2))))
    val table = Array.tabulate(g.n)(shifted)
    val brute = BruteForce.maximalCliques(g).toSeq.map(_.toArray)
    val bruteChecksum = brute.map(c => CliqueSink.cliqueHash(c, c.length, table)).sum
    mainConfigs.foreach { cfg =>
      val d = DistributedMCE.run(spark, wide, cfg, numTasks = 7)
      val sink = new LongCountingSink(table)
      Rmce.run(g, cfg, sink)
      assertSame("mixed-1-shifted", cfg, d, sink.count, sink.checksum)
      assertSame("mixed-1-shifted vs brute force", cfg, d, brute.size.toLong, bruteChecksum)
    }

    // Rmce.run reports nothing on an empty graph (RmcePerConfigSpec).
    checkDistVsLocal(CsrGraph.fromEdges(0, Seq.empty), "empty")
  }

  test("distributed equals local on a clique-union graph") {
    checkDistVsLocal(repro.gen.GraphGen.cliqueUnion(80, 40, 3, 6, 0.3, 5).toCsr, "cliqueUnion")
  }

  test("distributed equals local on a power-law graph") {
    checkDistVsLocal(repro.gen.GraphGen.powerLawCluster(120, 3, 0.5, 9).toCsr, "powerLaw")
  }

  test("materialised cliques equal brute force (all configs)") {
    val g = TestGraphs.mixed(4)
    val expected = BruteForce.maximalCliques(g)
      .map(_.toSeq.map(_.toLong).sorted.mkString(","))
    mainConfigs.foreach { cfg =>
      val got = DistributedMCE.cliques(spark, df(g.edges.toSeq), cfg, numTasks = 5)
        .collect().map(_.getString(0)).toSeq
      assert(got.size == got.toSet.size, s"${cfg.label}: duplicates")
      assert(got.toSet == expected, s"${cfg.label}: clique set mismatch")
    }
    val wide = DistributedMCE.cliques(spark,
      dfLong(g.edges.toSeq.map(e => (shifted(e._1), shifted(e._2)))),
      RmceConfig.rmce(RecursionKind.Degen), numTasks = 5).collect().map(_.getString(0)).toSeq
    assert(wide.size == expected.size, "shifted ids: clique count mismatch")
    assert(wide.map(_.split(",").map(id => ((id.toLong - 7) >> 33).toInt).toSet).toSet ==
      BruteForce.maximalCliques(g), "shifted ids: clique set mismatch")
  }

  test("fully-reducible graph (grid): everything pre-reported, zero roots") {
    val g = repro.gen.GraphGen.grid2d(6, 8)
    val cfg = RmceConfig.rmce(RecursionKind.Degen)
    val d = DistributedMCE.run(spark, df(g.edges.toSeq), cfg)
    assert(d.reducedN == 0)
    assert(d.metrics.preReportedGlobal == g.edges.length.toLong)
    assert(d.cliqueCount == g.edges.length.toLong)
    assert(d.metrics.recursiveCalls == 0)
  }

  test("baseline vs RMCE: same cliques, fewer recursive calls") {
    val g = repro.gen.GraphGen.withFringe(
      repro.gen.GraphGen.powerLawCluster(150, 4, 0.5, 3), 40, 20, 4)
    val e = df(g.edges.toSeq)
    val base = DistributedMCE.run(spark, e, RmceConfig.baseline(RecursionKind.Degen))
    val rmce = DistributedMCE.run(spark, e, RmceConfig.rmce(RecursionKind.Degen))
    assert(base.cliqueCount == rmce.cliqueCount && base.checksum == rmce.checksum)
    assert(rmce.metrics.recursiveCalls < base.metrics.recursiveCalls,
      s"RMCE should prune calls: ${rmce.metrics.recursiveCalls} vs ${base.metrics.recursiveCalls}")
  }

  test("metrics aggregate across partitions") {
    val g = TestGraphs.mixed(8)
    val e = df(g.edges.toSeq)
    val one = DistributedMCE.run(spark, e, RmceConfig.baseline(RecursionKind.Degen), numTasks = 1)
    val many = DistributedMCE.run(spark, e, RmceConfig.baseline(RecursionKind.Degen), numTasks = 8)
    assert(one.metrics.recursiveCalls == many.metrics.recursiveCalls)
    assert(one.metrics.rootSubproblems == many.metrics.rootSubproblems)
    assert(one.metrics.vertexVisits.toSeq == many.metrics.vertexVisits.toSeq)
  }

  test("forbidden-set metrics populated when maximality reduction is on") {
    val g = repro.gen.GraphGen.cliqueUnion(100, 60, 3, 7, 0.3, 8)
    val d = DistributedMCE.run(spark, df(g.edges.toSeq), RmceConfig.rmce(RecursionKind.Degen))
    assert(d.metrics.forbiddenXTotal >= d.metrics.forbiddenXKept)
    assert(d.metrics.rootSubproblems > 0)
  }

  test("degeneracy reported matches local decomposition after reduction") {
    val g = TestGraphs.mixed(12)
    val d = DistributedMCE.run(spark, df(g.edges.toSeq), RmceConfig.baseline(RecursionKind.Degen))
    assert(d.degeneracy == repro.graph.Degeneracy.degeneracy(g))
  }
}
