package repro.harness

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.gen.Datasets
import repro.graph.{CsrGraph, Degeneracy}
import repro.spark.{DistributedMCE, GraphOps}
import scala.collection.mutable

/** Builders for every evaluation artefact (Tables 2–3 and Figures 7–11 as
  * printed tables). Each returns the formatted table plus structured rows,
  * so bench suites can assert on the data and jobs can print the text.
  * Timings are local-kernel medians (see [[BenchRunner]]); the distributed
  * path is reported separately by [[distributed]].
  */
object Reports {
  import BenchRunner._

  private val csrCache = mutable.Map.empty[String, CsrGraph]
  private def csr(abbr: String): CsrGraph =
    csrCache.getOrElseUpdate(abbr, Datasets.byAbbr(abbr).csr)

  private val allAbbrs: Seq[String] = Datasets.all.map(_.abbr)

  // -------------------------------------------------------------------
  // Table 2: graph statistics.
  // -------------------------------------------------------------------
  final case class Table2Row(abbr: String, name: String, n: Long, m: Long,
                             dmax: Long, lambda: Int,
                             paperN: Long, paperM: Long, paperDmax: Int, paperLambda: Int)

  /** Graph statistics via the Spark DataFrame ops (n, m, d_max) and the
    * distributed-verified local peel (λ).
    */
  def table2(spark: SparkSession): (String, Seq[Table2Row]) = {
    val rows = Datasets.all.map { d =>
      val edges = Datasets.edgesDF(spark, d.abbr)
      val (n, m, dmax) = GraphOps.basicStats(edges)
      val lambda = Degeneracy.degeneracy(csr(d.abbr))
      Table2Row(d.abbr, d.name, n, m, dmax, lambda,
        d.paperVertices, d.paperEdges, d.paperDmax, d.paperLambda)
    }
    val text = formatTable(
      Seq("abbr", "graph", "n", "m", "dmax", "λ", "paper n", "paper m", "paper dmax", "paper λ"),
      rows.map(r => Seq(r.abbr, r.name, r.n.toString, r.m.toString, r.dmax.toString,
        r.lambda.toString, r.paperN.toString, r.paperM.toString,
        r.paperDmax.toString, r.paperLambda.toString)))
    (text, rows)
  }

  // -------------------------------------------------------------------
  // Table 3: ablation study (RMCEdegen vs Variant1/2/3), running time.
  // -------------------------------------------------------------------
  final case class AblationRow(abbr: String, tFull: Double, tV1: Double,
                               tV2: Double, tV3: Double, cliques: Long, paperFull: Double,
                               paperV1: Double, paperV2: Double, paperV3: Double)

  /** Paper Table 3 timings in seconds, same row order as Datasets.all. */
  private val paperTable3: Map[String, (Double, Double, Double, Double)] = Map(
    "as" -> (57.49, 51.22, 70.52, 60.77), "ca" -> (0.05, 0.05, 0.06, 0.11),
    "cp" -> (22.14, 25.71, 25.85, 24.86), "cd" -> (0.67, 0.75, 0.90, 0.90),
    "co" -> (2393.59, 2475.37, 2867.58, 2451.96), "cy" -> (4.01, 3.74, 4.47, 4.19),
    "ee" -> (0.47, 0.39, 0.48, 0.44), "fl" -> (178.86, 184.36, 249.78, 185.40),
    "in" -> (11.51, 19.07, 11.82, 11.62), "lt" -> (325.24, 341.99, 408.66, 344.67),
    "lg" -> (1.91, 1.74, 2.38, 2.06), "rc" -> (0.95, 1.41, 0.97, 0.96),
    "sd" -> (11.52, 9.28, 13.53, 12.04), "sp" -> (44.77, 43.69, 49.62, 48.93),
    "st" -> (391.48, 405.62, 478.73, 415.12), "wg" -> (2.55, 2.57, 3.00, 2.69),
    "ws" -> (1.51, 1.52, 2.08, 1.53), "wt" -> (76.68, 75.63, 90.74, 80.63))

  def table3(reps: Int = 3): (String, Seq[AblationRow]) = {
    val k = RecursionKind.Degen
    val rows = allAbbrs.map { abbr =>
      val g = csr(abbr)
      val full = timeLocal(abbr, g, RmceConfig.rmce(k), 1, reps)
      val v1 = timeLocal(abbr, g, RmceConfig.variant1(k), 1, reps)
      val v2 = timeLocal(abbr, g, RmceConfig.variant2(k), 1, reps)
      val v3 = timeLocal(abbr, g, RmceConfig.variant3(k), 1, reps)
      require(Set(full, v1, v2, v3).map(s => (s.cliques, s.checksum)).size == 1,
        s"$abbr: ablation variants disagree on the clique set")
      val p = paperTable3(abbr)
      AblationRow(abbr, full.timeMs, v1.timeMs, v2.timeMs, v3.timeMs, full.cliques,
        p._1, p._2, p._3, p._4)
    }
    val text = formatTable(
      Seq("abbr", "RMCEdegen", "Variant1", "Variant2", "Variant3", "cliques",
        "paper(s): full", "V1", "V2", "V3"),
      rows.map(r => Seq(r.abbr, f1(r.tFull) + "ms", f1(r.tV1) + "ms", f1(r.tV2) + "ms",
        f1(r.tV3) + "ms", r.cliques.toString,
        r.paperFull.toString, r.paperV1.toString, r.paperV2.toString, r.paperV3.toString)))
    (text, rows)
  }

  // -------------------------------------------------------------------
  // Figure 7 (as a table): speedups of RMCE over each baseline recursion.
  // -------------------------------------------------------------------
  final case class SpeedupRow(abbr: String, recursion: String, tBase: Double,
                              tRmce: Double, speedup: Double, cliques: Long,
                              baseCalls: Long, rmceCalls: Long)

  def fig7(reps: Int = 3,
           recursions: Seq[RecursionKind] = RecursionKind.all): (String, Seq[SpeedupRow]) = {
    val rows = for {
      abbr <- allAbbrs
      k <- recursions
    } yield {
      val g = csr(abbr)
      val base = timeLocal(abbr, g, RmceConfig.baseline(k), 1, reps)
      val rmce = timeLocal(abbr, g, RmceConfig.rmce(k), 1, reps)
      require(base.cliques == rmce.cliques && base.checksum == rmce.checksum,
        s"$abbr/${k.name}: clique sets diverge between baseline and RMCE")
      SpeedupRow(abbr, k.name, base.timeMs, rmce.timeMs, base.timeMs / rmce.timeMs,
        base.cliques, base.recursiveCalls, rmce.recursiveCalls)
    }
    val text = formatTable(
      Seq("abbr", "recursion", "BK (ms)", "RMCE (ms)", "speedup", "cliques"),
      rows.map(r => Seq(r.abbr, r.recursion, f1(r.tBase), f1(r.tRmce),
        f2(r.speedup) + "x", r.cliques.toString)))
    (text, rows)
  }

  // -------------------------------------------------------------------
  // Figure 8 (as a table): global reduction deleted-vertex/edge ratios.
  // -------------------------------------------------------------------
  final case class ReductionRow(abbr: String, n: Int, m: Long,
                                vRatio: Double, eRatio: Double, preReported: Long)

  def fig8(): (String, Seq[ReductionRow]) = {
    val rows = allAbbrs.map { abbr =>
      val g = csr(abbr)
      val sink = new CountingSink
      val res = GlobalReduction(g, sink, new Metrics(g.n))
      ReductionRow(abbr, g.n, g.m,
        res.deletedVertices.toDouble / g.n,
        res.deletedEdges.toDouble / g.m,
        sink.count)
    }
    val text = formatTable(
      Seq("abbr", "n", "m", "deleted V", "deleted E", "pre-reported cliques"),
      rows.map(r => Seq(r.abbr, r.n.toString, r.m.toString,
        pct(r.vRatio), pct(r.eRatio), r.preReported.toString)))
    (text, rows)
  }

  // -------------------------------------------------------------------
  // Figure 9 (as a table): ratio of recursive calls RMCEx / BKx.
  // -------------------------------------------------------------------
  final case class CallsRow(abbr: String, recursion: String,
                            baseCalls: Long, rmceCalls: Long, ratio: Double)

  def fig9(recursions: Seq[RecursionKind] = RecursionKind.all): (String, Seq[CallsRow]) = {
    val rows = for {
      abbr <- allAbbrs
      k <- recursions
    } yield {
      val g = csr(abbr)
      val base = timeLocal(abbr, g, RmceConfig.baseline(k), 0, 1)
      val rmce = timeLocal(abbr, g, RmceConfig.rmce(k), 0, 1)
      val ratio =
        if (base.recursiveCalls == 0) if (rmce.recursiveCalls == 0) 0.0 else 1.0
        else rmce.recursiveCalls.toDouble / base.recursiveCalls
      CallsRow(abbr, k.name, base.recursiveCalls, rmce.recursiveCalls, ratio)
    }
    val text = formatTable(
      Seq("abbr", "recursion", "BK calls", "RMCE calls", "ratio"),
      rows.map(r => Seq(r.abbr, r.recursion, r.baseCalls.toString,
        r.rmceCalls.toString, pct(r.ratio))))
    (text, rows)
  }

  // -------------------------------------------------------------------
  // Figure 10 (as a table): forbidden-set reduction ratios.
  // -------------------------------------------------------------------
  final case class ForbiddenRow(abbr: String, rVertex: Double, rSubproblem: Double,
                                xTotal: Long, xKept: Long)

  def fig10(): (String, Seq[ForbiddenRow]) = {
    val rows = allAbbrs.map { abbr =>
      val g = csr(abbr)
      val stats = timeLocal(abbr, g, RmceConfig.rmce(RecursionKind.Degen), 0, 1)
      val m = stats.metrics
      ForbiddenRow(abbr,
        1.0 - m.forbiddenKeepRatio,
        m.forbiddenReducedRootRatio,
        m.forbiddenXTotal, m.forbiddenXKept)
    }
    val text = formatTable(
      Seq("abbr", "r_vertex (pruned X)", "r_subproblem", "ΣX", "ΣX'"),
      rows.map(r => Seq(r.abbr, pct(r.rVertex), pct(r.rSubproblem),
        r.xTotal.toString, r.xKept.toString)))
    (text, rows)
  }

  // -------------------------------------------------------------------
  // Figure 11 (as a table): vertex visits by degree vs cliques by degree.
  // -------------------------------------------------------------------
  final case class VisitsRow(abbr: String, degree: Int, cliques: Long,
                             visitsBk: Long, visitsRcd: Long, visitsRmce: Long,
                             reductionVsBk: Double)

  def fig11(abbrs: Seq[String] = Datasets.fig11Abbrs,
            degreesPerGraph: Int = 6): (String, Seq[VisitsRow]) = {
    val rows = abbrs.flatMap { abbr =>
      val g = csr(abbr)
      val degOf = Array.tabulate(g.n)(g.degree)
      // Cliques-per-degree: each maximal clique counts once per member.
      val cliquesPerVertex = new Array[Long](g.n)
      val sink = new CliqueSink {
        override def report(vs: Array[Int], len: Int): Unit = {
          var i = 0
          while (i < len) { cliquesPerVertex(vs(i)) += 1; i += 1 }
        }
      }
      Rmce.run(g, RmceConfig.baseline(RecursionKind.Degen), sink)
      val cliquesByDeg = mutable.Map.empty[Int, Long]
      for (v <- 0 until g.n if cliquesPerVertex(v) > 0)
        cliquesByDeg(degOf(v)) = cliquesByDeg.getOrElse(degOf(v), 0L) + cliquesPerVertex(v)

      val bk = timeLocal(abbr, g, RmceConfig.baseline(RecursionKind.Degen), 0, 1)
      val rcd = timeLocal(abbr, g, RmceConfig.baseline(RecursionKind.Rcd), 0, 1)
      val rmce = timeLocal(abbr, g, RmceConfig.rmce(RecursionKind.Degen), 0, 1)
      val vBk = bk.metrics.visitsByDegree(degOf)
      val vRcd = rcd.metrics.visitsByDegree(degOf)
      val vRmce = rmce.metrics.visitsByDegree(degOf)
      // Representative degrees: the paper's Figure 11 spans the whole degree
      // axis, so report the low degrees it calls out (3, 5, 10 — where
      // global reduction strikes) plus the most visit-heavy degrees under
      // the baseline.
      val low = Seq(3, 5, 10).filter(d => vBk.contains(d) || cliquesByDeg.contains(d))
      val heavy = vBk.toSeq.sortBy(-_._2).map(_._1)
        .filterNot(low.contains).take(math.max(0, degreesPerGraph - low.size))
      val degrees = (low ++ heavy).sorted
      degrees.map { d =>
        val b = vBk.getOrElse(d, 0L)
        val r = vRmce.getOrElse(d, 0L)
        VisitsRow(abbr, d, cliquesByDeg.getOrElse(d, 0L), b,
          vRcd.getOrElse(d, 0L), r,
          if (b == 0) 0.0 else 1.0 - r.toDouble / b)
      }
    }
    val text = formatTable(
      Seq("abbr", "degree", "#cliques", "BKdegen visits", "BKrcd visits",
        "RMCEdegen visits", "reduction vs BKdegen"),
      rows.map(r => Seq(r.abbr, r.degree.toString, r.cliques.toString,
        r.visitsBk.toString, r.visitsRcd.toString, r.visitsRmce.toString,
        pct(r.reductionVsBk))))
    (text, rows)
  }

  // -------------------------------------------------------------------
  // Distributed pipeline demonstration. Each run collects the edges to
  // the driver, prepares there (global reduction for RMCE, degeneracy
  // order for both) and farms the root search over Spark tasks; wall-clock
  // includes Spark scheduling, algorithmic shape comes from the kernel
  // benches above.
  // -------------------------------------------------------------------
  final case class DistRow(abbr: String, algo: String, timeMs: Double,
                           cliques: Long, reducedN: Int)

  def distributed(spark: SparkSession,
                  abbrs: Seq[String] = Seq("co", "st", "wg")): (String, Seq[DistRow]) = {
    val rows = abbrs.flatMap { abbr =>
      val edges = Datasets.edgesDF(spark, abbr).cache()
      edges.count()
      Seq(RmceConfig.baseline(RecursionKind.Degen), RmceConfig.rmce(RecursionKind.Degen))
        .map { cfg =>
          val t0 = System.nanoTime()
          val res = DistributedMCE.run(spark, edges, cfg)
          val ms = (System.nanoTime() - t0) / 1e6
          DistRow(abbr, cfg.label, ms, res.cliqueCount, res.reducedN)
        }
    }
    val text = formatTable(
      Seq("abbr", "algo", "wall (ms)", "cliques", "surviving vertices"),
      rows.map(r => Seq(r.abbr, r.algo, f1(r.timeMs), r.cliques.toString, r.reducedN.toString)))
    (text, rows)
  }
}
