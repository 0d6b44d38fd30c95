package repro.spark

import repro.SparkSpec
import repro.core.{BruteForce, CollectingSink, GlobalReduction, Metrics, TestGraphs}
import repro.graph.CsrGraph

/** The DataFrame wrapper's one job: collect the edge table, reduce it with
  * the local [[repro.core.GlobalReduction]] and return the reduced edges in
  * the original ids. Its reduced edges must equal the local reduction's,
  * and together with the local reduction's pre-reports they must satisfy
  * the invariant `mc(G) = mc(G′) + α(ΔV, ΔE)`.
  */
class DistributedReductionSpec extends SparkSpec {

  /** Collected `reducedEdges` of `g`'s edges, with vertex `v` named
    * `id(v)`, against the local reduction's edges mapped through `id`.
    */
  private def reducedEdges(g: CsrGraph, label: String, id: Int => Long = _.toLong): Seq[(Long, Long)] = {
    val s = spark
    import s.implicits._
    val got = DistributedReduction(spark, g.edges.toSeq.map(e => (id(e._1), id(e._2))).toDF("src", "dst"))
      .reducedEdges.collect().map(r => (r.getLong(0), r.getLong(1))).toSeq.sorted
    val local = GlobalReduction(g, new CollectingSink, new Metrics(g.n)).reduced.edges
      .toSeq.map(e => (id(e._1), id(e._2))).sorted
    assert(got == local, s"$label: reduced edges differ from the local reduction's")
    got
  }

  /** The invariant over the wrapper's reduced edges G′ and the local
    * reduction's pre-reports α: no duplicate pre-reports, each maximal in
    * G, none a maximal clique of G′, and together exactly mc(G). Returns
    * the pre-reports, the local run's metrics and the reduced edges.
    */
  private def invariant(g: CsrGraph, label: String): (Seq[Set[Int]], Metrics, Seq[(Long, Long)]) = {
    val reduced = reducedEdges(g, label)
    val sink = new CollectingSink
    val metrics = new Metrics(g.n)
    GlobalReduction(g, sink, metrics)
    val pre = sink.cliques.toSeq
    assert(pre.size == pre.toSet.size, s"$label: duplicate pre-reports")
    pre.foreach(c => assert(BruteForce.isMaximalClique(g, c), s"$label: $c not maximal in G"))
    val gReduced = CsrGraph.fromEdges(g.n, reduced.map(e => (e._1.toInt, e._2.toInt)))
    val rest = BruteForce.maximalCliques(gReduced)
    assert(rest.intersect(pre.toSet).isEmpty, s"$label: double-counted clique")
    assert(rest ++ pre == BruteForce.maximalCliques(g), s"$label: union mismatch")
    (pre, metrics, reduced)
  }

  test("invariant on fixed graphs") {
    invariant(TestGraphs.path5, "path")
    invariant(TestGraphs.paw, "paw")
    invariant(CsrGraph.fromEdges(5, Seq((0, 1), (0, 2), (0, 3), (0, 4))), "star")
    invariant(TestGraphs.complete(5), "k5")
    invariant(TestGraphs.diamond, "diamond")
  }

  test("invariant on mixed-regime graphs") {
    for (seed <- 1 to 3) invariant(TestGraphs.mixed(seed), s"mixed-$seed")
  }

  test("grid graph fully deleted (paper: inf-road-usa, roadNet-CA)") {
    val g = repro.gen.GraphGen.grid2d(7, 9).toCsr
    val (pre, metrics, reduced) = invariant(g, "grid")
    assert(reduced.isEmpty)
    assert(metrics.globalDeletedVertices == g.n)
    assert(pre.size.toLong == g.m)
  }

  test("triangular torus untouched (paper: sc-delaunay_n23)") {
    val g = repro.gen.GraphGen.triangularTorus(5, 6).toCsr
    val (pre, metrics, reduced) = invariant(g, "torus")
    assert(reduced == g.edges.toSeq.map(e => (e._1.toLong, e._2.toLong)).sorted)
    assert(metrics.globalDeletedVertices == 0 && metrics.globalDeletedEdges == 0)
    assert(pre.isEmpty)
  }

  test("reducedEdges equal the local GlobalReduction's, in the original ids") {
    // Ids above Int.MaxValue: only the id table tells them apart.
    reducedEdges(TestGraphs.mixed(1), "mixed-1-shifted", id => id * (1L << 33) + 7)
  }
}
