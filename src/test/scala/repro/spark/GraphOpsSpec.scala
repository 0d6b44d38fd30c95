package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.{Oracle, SparkSpec}

/** DataFrame graph ops checked row-for-row against DuckDB SQL over the same
  * edge tables (the repo's correctness oracle).
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

  test("degrees match DuckDB group-by over the symmetric closure") {
    val canon = GraphOps.canonicalEdges(raw)
    Oracle.assertEquivalent(
      GraphOps.degrees(canon),
      """WITH sym AS (
        |  SELECT CAST(src AS BIGINT) AS v, CAST(dst AS BIGINT) AS w FROM e
        |  UNION ALL
        |  SELECT CAST(dst AS BIGINT), CAST(src AS BIGINT) FROM e)
        |SELECT v, COUNT(*) AS degree FROM sym GROUP BY v""".stripMargin,
      "e" -> canon)
  }

  test("Datasets.edgesDF returns canonical edges for a dataset stand-in") {
    val e = repro.gen.Datasets.edgesDF(spark, "rc")
    assert(e.columns.toSeq == Seq("src", "dst"))
    val bad = e.where(col("src") >= col("dst")).count()
    assert(bad == 0, "edges must be canonical src < dst")
    assert(e.count() == repro.gen.Datasets.byAbbr("rc").graph.edges.length.toLong)
  }

  test("basicStats") {
    val (n, m, dmax) = GraphOps.basicStats(raw)
    // canonical edges: (1,2),(2,3),(3,4),(1,4),(2,4),(2,10)
    assert(n == 5L && m == 6L && dmax == 4L)
  }

  test("symmetric doubles canonical edge count") {
    val canon = GraphOps.canonicalEdges(raw)
    assert(GraphOps.symmetric(raw).count() == 2 * canon.count())
  }
}
