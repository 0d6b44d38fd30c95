package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{CliqueSink, GlobalReduction, Metrics}
import scala.collection.mutable

/** Global reduction (Section 4) of an edge DataFrame: the edge table is
  * collected to the driver as in [[DistributedMCE]] and reduced by the
  * sequential [[repro.core.GlobalReduction]]; the reduced edges come back,
  * in the original Long ids, as a DataFrame.
  *
  * `DistributedMCE` does not call this: it runs the same reduction inside
  * `Rmce.prepare`. The object is kept as the DataFrame-level entry point
  * that the benchmark's standalone `spark.reduction` layer times and that
  * `DistributedReductionSpec` checks the invariant
  * `mc(G) = mc(G′) + α(ΔV, ΔE)` through.
  */
object DistributedReduction {

  final case class Result(
      reducedEdges: DataFrame,
      cliques: Seq[Array[Long]],
      deletedVertices: Long,
      deletedEdges: Long)

  def apply(spark: SparkSession, edges: DataFrame): Result = {
    val (g, toLong) = DistributedMCE.collectGraph(edges)
    val cliques = mutable.ArrayBuffer.empty[Array[Long]]
    val sink = new CliqueSink {
      override def report(vertices: Array[Int], len: Int): Unit =
        cliques += Array.tabulate(len)(i => toLong(vertices(i)))
    }
    val r = GlobalReduction(g, sink, new Metrics(g.n))
    import spark.implicits._
    val reduced = r.reduced.edges.toSeq.map { case (u, v) => (toLong(u), toLong(v)) }.toDF("src", "dst")
    Result(reduced, cliques.toSeq, r.deletedVertices, r.deletedEdges)
  }
}
