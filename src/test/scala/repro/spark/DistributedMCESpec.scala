package repro.spark

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.core._
import repro.graph.CsrGraph

/** Differential tests: the distributed task farm must produce exactly the
  * clique multiset of the driver-local reference run (same ids, same
  * hashing), for every recursion and reduction setting, and must agree with
  * brute force on materialised cliques.
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

  private def checkDistVsLocal(edges: Seq[(Int, Int)], label: String): Unit =
    checkDistVsLocal(df(edges), label)

  /** Returns the distributed results, one per config. */
  private def checkDistVsLocal(e: DataFrame, label: String): Seq[DistributedMCE.Result] =
    mainConfigs.map { cfg =>
      val d = DistributedMCE.run(spark, e, cfg, numTasks = 7)
      val l = DistributedMCE.runLocal(spark, e, cfg)
      assert(d.cliqueCount == l.cliqueCount,
        s"$label/${cfg.label}: count ${d.cliqueCount} != local ${l.cliqueCount}")
      assert(d.checksum == l.checksum, s"$label/${cfg.label}: checksum mismatch")
      d
    }

  test("distributed equals local on mixed-regime graphs") {
    for (seed <- 1 to 3) {
      val g = TestGraphs.mixed(seed)
      checkDistVsLocal(g.edges.toSeq, s"mixed-$seed")
    }
    val g = TestGraphs.mixed(1)
    checkDistVsLocal(dfLong(g.edges.toSeq.map(e => (shifted(e._1), shifted(e._2)))), "mixed-1-shifted")
    checkDistVsLocal(dfLong(Seq.empty), "empty").foreach { d =>
      assert(d.cliqueCount == 0 && d.checksum == 0, "empty: cliques reported")
    }
  }

  test("distributed equals local on a clique-union graph") {
    val g = repro.gen.GraphGen.cliqueUnion(80, 40, 3, 6, 0.3, 5)
    checkDistVsLocal(g.edges.toSeq, "cliqueUnion")
  }

  test("distributed equals local on a power-law graph") {
    val g = repro.gen.GraphGen.powerLawCluster(120, 3, 0.5, 9)
    checkDistVsLocal(g.edges.toSeq, "powerLaw")
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
    assert(d.preReportedGlobal == g.edges.length.toLong)
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
