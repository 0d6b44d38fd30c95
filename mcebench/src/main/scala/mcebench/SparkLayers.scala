package mcebench

import org.apache.spark.scheduler._
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{LongType, StructField, StructType}

import repro.core.RmceConfig
import repro.spark.{DistributedMCE, DistributedReduction, GraphOps}

/** The program's Spark path, `DistributedMCE.run` under `local[threads]`
  * on a cached input DataFrame, as the traced run drives it.
  */
final class SparkFarm(in: Input, threads: Int, shufflePartitions: Int, workDir: String) {
  private val listener = new TaskListener

  private val spark: SparkSession = SparkSession.builder()
    .master(s"local[$threads]")
    .appName("mcebench")
    .config("spark.ui.enabled", "false")
    .config("spark.driver.host", "127.0.0.1")
    .config("spark.sql.shuffle.partitions", shufflePartitions.toString)
    .config("spark.local.dir", s"$workDir/spark-local")
    .config("spark.sql.warehouse.dir", s"$workDir/spark-warehouse")
    .getOrCreate()

  private val df: DataFrame = {
    val rows = in.edges.toSeq.map { case (u, v) => Row(u.toLong, v.toLong) }
    val schema = StructType(Seq(StructField("src", LongType), StructField("dst", LongType)))
    val d = spark.createDataFrame(spark.sparkContext.parallelize(rows, threads), schema).cache()
    d.count()
    d
  }

  def op(cfg: RmceConfig): (Long, Long) = {
    val r = DistributedMCE.run(spark, df, cfg)
    (r.cliqueCount, r.checksum)
  }

  /** An op inside a `spark.run` span; its jobs, stages and tasks are
    * recorded as layer values of `op`.
    */
  def tracedOp(t: Tracer, opId: Int, cfg: RmceConfig): (Long, Long) = {
    val sc = spark.sparkContext
    listener.reset()
    sc.addSparkListener(listener)
    val r = t.span(opId, "spark.run")(DistributedMCE.run(spark, df, cfg))
    org.apache.spark.BenchBus.drain(sc)
    sc.removeSparkListener(listener)
    listener.values.foreach { case (k, v) => t.record(k, v) }
    (r.cliqueCount, r.checksum)
  }

  /** The Spark path's first two layers, timed standalone after a traced op. */
  def standalone(t: Tracer, opId: Int): Unit = {
    val canon = t.span(opId, "spark.canon") {
      val c = GraphOps.canonicalEdges(df); c.count(); c
    }
    t.span(opId, "spark.reduction")(DistributedReduction(spark, canon).reducedEdges.count())
  }

  def stop(): Unit = spark.stop()
}

/** Counts Spark jobs, stages and tasks of one op, with task time, shuffle
  * bytes and task GC time.
  */
final class TaskListener extends SparkListener {
  private var jobs, stages, tasks = 0L
  private var taskMsSum, taskMsMax, shuffleBytes, gcMs = 0L

  def reset(): Unit = synchronized {
    jobs = 0; stages = 0; tasks = 0; taskMsSum = 0; taskMsMax = 0; shuffleBytes = 0; gcMs = 0
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized { jobs += 1 }
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized { stages += 1 }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasks += 1
    val ms = e.taskInfo.duration
    taskMsSum += ms
    taskMsMax = math.max(taskMsMax, ms)
    val m = e.taskMetrics
    if (m != null) {
      shuffleBytes += m.shuffleWriteMetrics.bytesWritten
      gcMs += m.jvmGCTime
    }
  }

  def values: Map[String, Double] = synchronized {
    Map(
      "spark.jobs" -> jobs.toDouble,
      "spark.stages" -> stages.toDouble,
      "spark.tasks" -> tasks.toDouble,
      "spark.task_ms.max" -> taskMsMax.toDouble,
      "spark.task_ms.mean" -> (if (tasks == 0) 0.0 else taskMsSum.toDouble / tasks),
      "spark.shuffle_mb" -> shuffleBytes / 1048576.0,
      "spark.gc_ms" -> gcMs.toDouble)
  }
}
