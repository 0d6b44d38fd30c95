package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** DataFrame-level graph operations over edge lists `(src, dst)`.
  *
  * Pure DataFrame transformations; correctness is pinned by a DuckDB-oracle
  * test that runs the equivalent SQL over the same edge table.
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
