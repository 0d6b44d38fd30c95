package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.{Oracle, SparkSpec}

/** `GraphOps.canonicalEdges` checked row-for-row against DuckDB SQL over the
  * same edge table (the repo's correctness oracle), and the stand-ins' edge
  * tables checked canonical.
  */
class GraphOpsSpec extends SparkSpec {

  private def df(edges: Seq[(Long, Long)]): DataFrame = {
    val s = spark
    import s.implicits._
    edges.toDF("src", "dst")
  }

  private val raw = df(Seq((1L, 2L), (2L, 1L), (3L, 3L), (2L, 3L), (3L, 4L),
    (4L, 1L), (4L, 2L), (10L, 2L)))

  test("canonicalEdges matches DuckDB DISTINCT/LEAST/GREATEST") {
    val got = GraphOps.canonicalEdges(raw)
    Oracle.assertEquivalent(
      got,
      """SELECT DISTINCT
        |  LEAST(CAST(src AS BIGINT), CAST(dst AS BIGINT)) AS src,
        |  GREATEST(CAST(src AS BIGINT), CAST(dst AS BIGINT)) AS dst
        |FROM e
        |WHERE CAST(src AS BIGINT) <> CAST(dst AS BIGINT)""".stripMargin,
      "e" -> raw)
  }

  test("Datasets.edgesDF returns canonical edges for a dataset stand-in") {
    val e = repro.gen.Datasets.edgesDF(spark, "rc")
    assert(e.columns.toSeq == Seq("src", "dst"))
    val bad = e.where(col("src") >= col("dst")).count()
    assert(bad == 0, "edges must be canonical src < dst")
    assert(e.count() == repro.gen.Datasets.byAbbr("rc").graph.edges.length.toLong)
  }
}
