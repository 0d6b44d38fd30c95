package repro.harness

import java.lang.management.ManagementFactory
import repro.core._
import repro.graph.CsrGraph

/** Timing/metrics harness shared by the bench suites and the spark-submit
  * jobs.
  *
  * The paper's numbers are single-threaded C++ wall-clock; for table shape
  * we therefore time the local kernel directly. The distributed path is
  * exercised by `DistributedMceBench` / tests, where per-job scheduling
  * overhead would otherwise drown the algorithmic signal on second-scale
  * stand-ins.
  */
object BenchRunner {

  /** One configuration's timing on one graph: the median run time and the
    * lower/upper quartile (`q1Ms`, `q3Ms`) of its repetitions. Every counter
    * of the run is in `metrics`.
    */
  final case class RunStats(
      dataset: String,
      algo: String,
      timeMs: Double,
      q1Ms: Double,
      q3Ms: Double,
      cliques: Long,
      checksum: Long,
      metrics: Metrics)

  private val threadMx = ManagementFactory.getThreadMXBean

  /** Time the configurations of one table row together (kernel only,
    * driver-local). Each config runs once untimed, then `reps` rounds run
    * every config once each, so a slow host phase lands on all of them.
    * A run is timed by the calling thread's CPU time; each config gets its
    * median and quartiles (nearest rank, so `reps < 4` gives the extremes).
    * All configs must report the same clique set.
    */
  def timeLocal(dataset: String, g: CsrGraph, cfgs: Seq[RmceConfig],
                reps: Int): Seq[RunStats] = {
    require(cfgs.nonEmpty && reps > 0)
    cfgs.foreach(Rmce.run(g, _, new CountingSink))
    val times = Array.fill(cfgs.size)(new Array[Double](reps))
    val last = new Array[(CountingSink, Metrics)](cfgs.size)
    for (i <- 0 until reps; (cfg, c) <- cfgs.zipWithIndex) {
      val sink = new CountingSink
      val t0 = threadMx.getCurrentThreadCpuTime
      val metrics = Rmce.run(g, cfg, sink)
      times(c)(i) = (threadMx.getCurrentThreadCpuTime - t0) / 1e6
      last(c) = (sink, metrics)
    }
    val stats = cfgs.indices.map { c =>
      val t = times(c)
      java.util.Arrays.sort(t)
      val (sink, metrics) = last(c)
      RunStats(dataset, cfgs(c).label, t(reps / 2), t(reps / 4), t(reps - 1 - reps / 4),
        sink.count, sink.checksum, metrics)
    }
    require(stats.map(s => (s.cliques, s.checksum)).distinct.size == 1,
      s"$dataset: ${cfgs.map(_.label).mkString(", ")} disagree on the clique set")
    stats
  }

  /** Fixed-width table printer (monospace logs). */
  def formatTable(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(c => all.map(_(c).length).max)
    def line(r: Seq[String]): String =
      r.zip(widths).map { case (cell, w) => cell.padTo(w, ' ') }.mkString("  ")
    (line(header) +: line(widths.map("-" * _)) +: rows.map(line)).mkString("\n")
  }

  def f1(x: Double): String = f"$x%.1f"
  def f2(x: Double): String = f"$x%.2f"
  def pct(x: Double): String = f"${100 * x}%.1f%%"
}
