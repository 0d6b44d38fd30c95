package repro.spark

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.graph.CsrGraph
import scala.collection.mutable
import scala.reflect.ClassTag

/** Counting sink over an id-translation table: labels arriving from the
  * kernel are compact ids; the sink hashes the original Long ids so local
  * and distributed runs over the same DataFrame produce identical
  * checksums.
  */
final class LongCountingSink(toLong: Array[Long]) extends CliqueSink {
  var count: Long = 0L
  var checksum: Long = 0L

  override def report(vertices: Array[Int], len: Int): Unit = {
    count += 1
    checksum += CliqueSink.cliqueHash(vertices, len, toLong)
  }
}

/** Collects each clique as its sorted original ids joined by commas. */
private final class CliqueStrings(toLong: Array[Long]) extends CliqueSink {
  val out: mutable.ArrayBuffer[String] = mutable.ArrayBuffer.empty

  override def report(vertices: Array[Int], len: Int): Unit =
    out += (0 until len).map(i => toLong(vertices(i))).sorted.mkString(",")
}

/** Distributed maximal clique enumeration: the paper's RMCE pipeline with
  * the root search farmed out over Spark.
  *
  *  1. the canonical edge list is collected to the driver once and compacted
  *     to a CSR over ids `0 until n`, with a table back to the Long ids;
  *  2. `Rmce.prepare` runs on the driver, exactly as in a local run: global
  *     reduction (if configured), whose maximal cliques go to a driver-side
  *     sink, then degeneracy order and relabelling;
  *  3. the prepared graph and the id table are broadcast, and root
  *     subproblems `(v, N⁺(v), N⁻(v))` are farmed round-robin over tasks;
  *     each task runs `Rmce.runRoots` with dynamic and maximality-check
  *     reductions (the per-task `ignoreId` reuse is sound — see
  *     [[repro.core.ForbiddenSetReduction]]);
  *  4. clique counts, order-independent checksums, and instrumentation
  *     metrics are reduced back to the driver and added to the driver's.
  */
object DistributedMCE {

  /** A run's clique count and checksum over the original ids, the vertices
    * with edges left after global reduction, the degeneracy of that graph,
    * and every counter of the run (driver-side prepare plus all tasks).
    */
  final case class Result(
      cliqueCount: Long,
      checksum: Long,
      reducedN: Int,
      degeneracy: Int,
      metrics: Metrics)

  /** The edge table collected to the driver once: a CSR over compact ids
    * and the compact id → original Long id table (ascending, so compaction
    * keeps `src < dst`).
    */
  private[spark] def collectGraph(edgesDf: DataFrame): (CsrGraph, Array[Long]) =
    CsrGraph.fromLongEdges(GraphOps.canonicalEdges(edgesDf).select("src", "dst").collect()
      .map(r => (r.getLong(0), r.getLong(1))))

  /** Collect, then `Rmce.prepare` on the driver; cliques reported by global
    * reduction go to the sink `sinkFor` builds over the id table.
    */
  private def prepare[S <: CliqueSink](edgesDf: DataFrame, cfg: RmceConfig)(
      sinkFor: Array[Long] => S): (Rmce.Prepared, Array[Long], S, Metrics) = {
    val (g, toLong) = collectGraph(edgesDf)
    val sink = sinkFor(toLong)
    val metrics = new Metrics(g.n)
    (Rmce.prepare(g, cfg, sink, metrics), toLong, sink, metrics)
  }

  /** Tasks per core when the caller sets no count: several, so a core whose
    * roots are cheap takes another task while a costly one runs.
    */
  private val TasksPerCore = 4

  /** Broadcast the prepared graph and id table and run `search` once per
    * task; task `t` of `tasks` takes the roots `t until n by tasks`.
    */
  private def farm[T: ClassTag](spark: SparkSession, prepared: Rmce.Prepared,
                                toLong: Array[Long], numTasks: Int)(
      search: (Rmce.Prepared, Array[Long], Range) => T): RDD[T] = {
    val sc = spark.sparkContext
    val tasks = math.max(1, if (numTasks > 0) numTasks else sc.defaultParallelism * TasksPerCore)
    val bc = sc.broadcast((prepared, toLong))
    val n = prepared.graph.n
    sc.parallelize(0 until tasks, tasks).map { t =>
      val (prep, ids) = bc.value
      search(prep, ids, t until n by tasks)
    }
  }

  /** Run the full distributed pipeline. */
  def run(spark: SparkSession, edgesDf: DataFrame, cfg: RmceConfig,
          numTasks: Int = 0): Result = {
    val (prepared, toLong, pre, metrics) = prepare(edgesDf, cfg)(new LongCountingSink(_))
    val (count, checksum, farmed) =
      farm(spark, prepared, toLong, numTasks) { (prep, ids, roots) =>
        val sink = new LongCountingSink(ids)
        val m = new Metrics(prep.graph.n)
        Rmce.runRoots(prep, roots, cfg, sink, m)
        (sink.count, sink.checksum, m)
      }.reduce { case ((c1, s1, m1), (c2, s2, m2)) => (c1 + c2, s1 + s2, m1.merge(m2)) }
    metrics.merge(farmed)
    val g = prepared.graph
    Result(
      cliqueCount = pre.count + count,
      checksum = pre.checksum + checksum,
      reducedN = (0 until g.n).count(g.degree(_) > 0),
      degeneracy = prepared.degeneracy,
      metrics = metrics)
  }

  /** Materialise the clique set as a DataFrame of canonical strings
    * ("a,b,c" with sorted original ids) — for correctness tests on small
    * graphs.
    */
  def cliques(spark: SparkSession, edgesDf: DataFrame, cfg: RmceConfig,
              numTasks: Int = 0): DataFrame = {
    val (prepared, toLong, pre, _) = prepare(edgesDf, cfg)(new CliqueStrings(_))
    val searched =
      farm(spark, prepared, toLong, numTasks) { (prep, ids, roots) =>
        val sink = new CliqueStrings(ids)
        Rmce.runRoots(prep, roots, cfg, sink, new Metrics(prep.graph.n))
        sink.out
      }.flatMap(identity)
    import spark.implicits._
    searched.union(spark.sparkContext.parallelize(pre.out.toSeq, 1)).toDF("clique")
  }
}
