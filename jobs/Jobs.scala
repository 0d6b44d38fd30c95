package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.harness.Reports

/** Shared session builder for the spark-submit entrypoints. */
private[jobs] object JobSession {
  def session(name: String): SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }
}

/** Table 2 — graph statistics of the 18 dataset stand-ins vs the paper. */
object Table2Stats {
  def main(args: Array[String]): Unit = println(Reports.table2()._1)
}

/** Table 3 — ablation study of the three reduction techniques. */
object Table3Ablation {
  def main(args: Array[String]): Unit =
    println(Reports.table3(reps = if (args.nonEmpty) args(0).toInt else 5)._1)
}

/** Figure 7 (as a table) — RMCE speedups over the four baselines. */
object Fig7Speedups {
  def main(args: Array[String]): Unit =
    println(Reports.fig7(reps = if (args.nonEmpty) args(0).toInt else 5)._1)
}

/** Figure 8 (as a table) — global reduction yield. */
object Fig8Reduction {
  def main(args: Array[String]): Unit = println(Reports.fig8()._1)
}

/** Figure 9 (as a table) — recursive-call ratios RMCE/BK. */
object Fig9Calls {
  def main(args: Array[String]): Unit = println(Reports.fig9()._1)
}

/** Figure 10 (as a table) — forbidden-set reduction ratios. */
object Fig10Forbidden {
  def main(args: Array[String]): Unit = println(Reports.fig10()._1)
}

/** Figure 11 (as a table) — vertex visits by degree on the 4 study graphs. */
object Fig11Visits {
  def main(args: Array[String]): Unit = println(Reports.fig11()._1)
}

/** Distributed pipeline demo: driver-side prepare + root-task farm. */
object DistributedDemo {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.session("distributed-rmce")
    val abbrs = if (args.nonEmpty) args.toSeq else Seq("co", "st", "wg")
    try println(Reports.distributed(spark, abbrs)._1) finally spark.stop()
  }
}

/** Run a single dataset × algorithm through the distributed pipeline:
  * `RunMce <abbr> <degen|rcd|facen|revised> [baseline]`.
  */
object RunMce {
  def main(args: Array[String]): Unit = {
    require(args.length >= 2, "usage: RunMce <abbr> <degen|rcd|facen|revised> [baseline]")
    val kind = repro.core.RecursionKind.all.find(_.name == args(1))
      .getOrElse(sys.error(s"unknown recursion '${args(1)}'"))
    val cfg =
      if (args.length > 2 && args(2) == "baseline") repro.core.RmceConfig.baseline(kind)
      else repro.core.RmceConfig.rmce(kind)
    val spark = JobSession.session(s"mce-${args(0)}-${cfg.label}")
    try {
      val edges = repro.gen.Datasets.edgesDF(spark, args(0))
      val res = repro.spark.DistributedMCE.run(spark, edges, cfg)
      val m = res.metrics
      println(s"dataset=${args(0)} algo=${cfg.label} cliques=${res.cliqueCount} " +
        s"checksum=${res.checksum} preReported=${m.preReportedGlobal} " +
        s"deletedV=${m.globalDeletedVertices} deletedE=${m.globalDeletedEdges} " +
        s"recursiveCalls=${m.recursiveCalls} degeneracy=${res.degeneracy}")
    } finally spark.stop()
  }
}
