package repro.spark

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.core._
import repro.graph.CsrGraph

/** Differential tests: the distributed task farm must produce exactly the
  * clique multiset of a local `Rmce.run` and of brute force over the same
  * edges, for every recursion and reduction setting. Checksums are
  * comparable because `CountingSink` hashes `id.toLong` and the farm hashes
  * the original ids of its compacted graph; for ids above `Int.MaxValue`
  * every side hashes through one id table.
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

  /** Brute force's clique count and checksum with vertex `v` hashed as
    * `toLong(v)`; over `v.toLong` this is the `CountingSink` checksum.
    */
  private def bruteCountAndChecksum(g: CsrGraph, toLong: Array[Long]): (Long, Long) = {
    val cliques = BruteForce.maximalCliques(g).toSeq.map(_.toArray)
    (cliques.size.toLong, cliques.map(c => CliqueSink.cliqueHash(c, c.length, toLong)).sum)
  }

  /** `DistributedMCE.run` against `Rmce.run` and brute force on the same Int
    * edges, for every config: same clique count and checksum, and the same
    * global-reduction counters and prepared vertex count as a local run
    * (both run the same prepare).
    */
  private def checkDistVsLocal(g: CsrGraph, label: String): Unit = {
    val (bruteCount, bruteChecksum) = bruteCountAndChecksum(g, Array.tabulate(g.n)(_.toLong))
    mainConfigs.foreach { cfg =>
      val d = DistributedMCE.run(spark, df(g.edges.toSeq), cfg, numTasks = 7)
      val sink = new CountingSink
      val local = Rmce.run(g, cfg, sink)
      assertSame(label, cfg, d, sink.count, sink.checksum)
      assertSame(s"$label vs brute force", cfg, d, bruteCount, bruteChecksum)
      assert(d.metrics.preReportedGlobal == local.preReportedGlobal &&
        d.metrics.globalDeletedVertices == local.globalDeletedVertices &&
        d.metrics.globalDeletedEdges == local.globalDeletedEdges,
        s"$label/${cfg.label}: global-reduction counters differ")
      val localN = Rmce.prepare(g, cfg, new CountingSink, new Metrics(g.n)).graph.n
      assert(d.reducedN == localN, s"$label/${cfg.label}: reducedN ${d.reducedN} != $localN")
    }
  }

  test("distributed equals local on mixed-regime graphs") {
    for (seed <- 1 to 3) checkDistVsLocal(TestGraphs.mixed(seed), s"mixed-$seed")

    // Ids above Int.MaxValue: the local run and brute force hash through the
    // same id table as the farm.
    val g = TestGraphs.mixed(1)
    val wide = dfLong(g.edges.toSeq.map(e => (shifted(e._1), shifted(e._2))))
    val table = Array.tabulate(g.n)(shifted)
    val (bruteCount, bruteChecksum) = bruteCountAndChecksum(g, table)
    mainConfigs.foreach { cfg =>
      val d = DistributedMCE.run(spark, wide, cfg, numTasks = 7)
      val sink = new LongCountingSink(table)
      Rmce.run(g, cfg, sink)
      assertSame("mixed-1-shifted", cfg, d, sink.count, sink.checksum)
      assertSame("mixed-1-shifted vs brute force", cfg, d, bruteCount, bruteChecksum)
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
    // The farm's clique count and checksum against brute force's materialised
    // clique set (checkDistVsLocal), for every config, on mixed seed 4.
    checkDistVsLocal(TestGraphs.mixed(4), "mixed-4")
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
