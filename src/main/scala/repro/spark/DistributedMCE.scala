package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.graph.CsrGraph

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

/** Distributed maximal clique enumeration: the paper's RMCE pipeline with
  * the root search farmed out over Spark.
  *
  *  1. the edge table is collected to the driver once, as it is, and built
  *     into a CSR over ids `0 until n`, with a table back to the Long ids;
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

  /** A run's clique count and checksum over the original ids, the vertex
    * count of the prepared graph (the vertices with edges left after global
    * reduction), the degeneracy of that graph, and every counter of the run
    * (driver-side prepare plus all tasks).
    */
  final case class Result(
      cliqueCount: Long,
      checksum: Long,
      reducedN: Int,
      degeneracy: Int,
      metrics: Metrics)

  /** The edge table collected to the driver as it is, with no shuffle: one
    * packed array of endpoint pairs per partition, canonicalised by
    * `fromLongEdges`. A null endpoint fails the run, naming its column.
    */
  private[spark] def collectGraph(edgesDf: DataFrame): (CsrGraph, Array[Long]) = {
    val parts = edgesDf.select("src", "dst").rdd.mapPartitions { rows =>
      val (complete, rest) = rows.span(!_.anyNull)
      val ends = new scala.collection.mutable.ArrayBuilder.ofLong
      complete.foreach { r => ends += r.getLong(0); ends += r.getLong(1) }
      val nullColumn = rest.nextOption().map(r => if (r.isNullAt(0)) "src" else "dst")
      Iterator.single((ends.result(), nullColumn))
    }.collect()
    for (c <- parts.flatMap(_._2).headOption)
      throw new IllegalArgumentException(s"edge column $c holds a null endpoint")
    CsrGraph.fromLongEdges(Array.concat(parts.map(_._1).toIndexedSeq: _*))
  }

  /** Tasks per core when the caller sets no count: several, so a core whose
    * roots are cheap takes another task while a costly one runs.
    */
  private val TasksPerCore = 4

  /** Run the full distributed pipeline: collect, `Rmce.prepare` on the
    * driver, then one task per root group; task `t` of `tasks` takes the
    * roots `t until n by tasks`, where `n` is the prepared graph's vertex
    * count.
    */
  def run(spark: SparkSession, edgesDf: DataFrame, cfg: RmceConfig,
          numTasks: Int = 0): Result = {
    val (g, toLong) = collectGraph(edgesDf)
    val pre = new LongCountingSink(toLong)
    val metrics = new Metrics(g.n)
    val prepared = Rmce.prepare(g, cfg, pre, metrics)
    val sc = spark.sparkContext
    val tasks = math.max(1, if (numTasks > 0) numTasks else sc.defaultParallelism * TasksPerCore)
    val bc = sc.broadcast((prepared, toLong))
    val n = prepared.graph.n
    val collectedN = g.n // visits are counted per collected id, through toOrig
    val (count, checksum, farmed) =
      sc.parallelize(0 until tasks, tasks).map { t =>
        val (prep, ids) = bc.value
        val sink = new LongCountingSink(ids)
        val m = new Metrics(collectedN)
        Rmce.runRoots(prep, t until n by tasks, cfg, sink, m)
        (sink.count, sink.checksum, m)
      }.reduce { case ((c1, s1, m1), (c2, s2, m2)) => (c1 + c2, s1 + s2, m1.merge(m2)) }
    metrics.merge(farmed)
    Result(
      cliqueCount = pre.count + count,
      checksum = pre.checksum + checksum,
      reducedN = n,
      degeneracy = prepared.degeneracy,
      metrics = metrics)
  }
}
