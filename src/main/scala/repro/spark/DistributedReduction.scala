package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{CountingSink, GlobalReduction, Metrics}

/** Global reduction (Section 4) of an edge DataFrame: the edge table is
  * collected to the driver as in [[DistributedMCE]] and reduced by the
  * sequential [[repro.core.GlobalReduction]]; the reduced edges come back,
  * in the original Long ids, as a DataFrame.
  *
  * Nothing in the program calls this: `DistributedMCE.run` runs the same
  * reduction inside `Rmce.prepare`. It exists only because the benchmark's
  * standalone `spark.reduction` layer (`mcebench/SparkLayers.standalone`)
  * times it, and goes when that layer is replaced.
  */
object DistributedReduction {

  final case class Result(reducedEdges: DataFrame)

  def apply(spark: SparkSession, edges: DataFrame): Result = {
    val (g, toLong) = DistributedMCE.collectGraph(edges)
    val r = GlobalReduction(g, new CountingSink, new Metrics(g.n))
    import spark.implicits._
    Result(r.reduced.edges.toSeq.map { case (u, v) => (toLong(u), toLong(v)) }.toDF("src", "dst"))
  }
}
