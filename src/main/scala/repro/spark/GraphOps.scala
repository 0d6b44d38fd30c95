package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** DataFrame-level graph operations over edge lists `(src, dst)`, checked
  * against DuckDB SQL. The program does not call them: `CsrGraph.fromLongEdges`
  * canonicalises the collected table. They stay only because the benchmark's
  * `spark.canon` layer (`mcebench/SparkLayers.standalone`) times them; they go with it.
  */
object GraphOps {

  /** Canonical undirected edge list: self-loops dropped, duplicates (in
    * either orientation) collapsed, oriented `src < dst`.
    */
  def canonicalEdges(edges: DataFrame): DataFrame =
    edges
      .select(
        least(col("src"), col("dst")).as("src"),
        greatest(col("src"), col("dst")).as("dst"))
      .where(col("src") =!= col("dst"))
      .distinct()
}
