package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** DataFrame-level graph operations over edge lists `(src, dst)`.
  *
  * All operations are pure DataFrame transformations (Catalyst-planned
  * joins/aggregations); correctness is pinned by DuckDB-oracle tests that
  * run the equivalent SQL over the same edge table.
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

  /** Both orientations of each canonical edge (adjacency view). */
  def symmetric(edges: DataFrame): DataFrame = {
    val c = canonicalEdges(edges)
    c.union(c.select(col("dst").as("src"), col("src").as("dst")))
  }

  /** Per-vertex degree: `(v, degree)`. Vertices only exist via edges, so
    * every row has `degree >= 1`.
    */
  def degrees(edges: DataFrame): DataFrame =
    symmetric(edges).groupBy(col("src").as("v")).agg(count(lit(1)).as("degree"))

  /** Graph statistics used by Table 2: `(vertices, edges, maxDegree)`. */
  def basicStats(edges: DataFrame): (Long, Long, Long) = {
    val deg = degrees(edges).agg(
      count(lit(1)).as("n"),
      sum(col("degree")).as("twoM"),
      max(col("degree")).as("dmax")).collect()(0)
    (deg.getLong(0), deg.getLong(1) / 2, deg.getLong(2))
  }
}
