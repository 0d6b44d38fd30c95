package repro.harness

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.gen.Datasets
import repro.graph.Degeneracy
import repro.spark.DistributedMCE
import scala.collection.mutable

/** Builders for every evaluation artefact (Tables 2–3 and Figures 7–11 as
  * printed tables). Each returns the formatted table plus structured rows,
  * so bench suites can assert on the data and jobs can print the text.
  * Timings are local-kernel medians with quartiles (see [[BenchRunner]]);
  * the distributed path is reported separately by [[distributed]].
  */
object Reports {
  import BenchRunner._

  private val allAbbrs: Seq[String] = Datasets.all.map(_.abbr)

  /** A timing cell, `median [q1, q3]` in ms, so rows whose spreads overlap
    * are visible as such.
    */
  private def spread(s: RunStats): String = s"${f1(s.timeMs)} [${f1(s.q1Ms)}, ${f1(s.q3Ms)}]"

  // -------------------------------------------------------------------
  // Table 2: graph statistics.
  // -------------------------------------------------------------------
  final case class Table2Row(abbr: String, name: String, n: Int, m: Long,
                             dmax: Int, lambda: Int,
                             paperN: Long, paperM: Long, paperDmax: Int, paperLambda: Int)

  /** Graph statistics read off each stand-in's CSR: n, m, d_max, and λ from
    * the core decomposition. A stand-in has no isolated vertex and no
    * duplicate edge (`DatasetsSpec`), so n and m are those of its canonical
    * edge table.
    */
  def table2(): (String, Seq[Table2Row]) = {
    val rows = Datasets.all.map { d =>
      val g = d.csr
      Table2Row(d.abbr, d.name, g.n, g.m, g.maxDegree, Degeneracy.degeneracy(g),
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

  def table3(reps: Int): (String, Seq[AblationRow]) = {
    val k = RecursionKind.Degen
    val cfgs = Seq(RmceConfig.rmce(k), RmceConfig.variant1(k), RmceConfig.variant2(k),
      RmceConfig.variant3(k))
    val built = allAbbrs.map { abbr =>
      val stats @ Seq(full, v1, v2, v3) = timeLocal(abbr, Datasets.byAbbr(abbr).csr, cfgs, reps)
      val p = paperTable3(abbr)
      val row = AblationRow(abbr, full.timeMs, v1.timeMs, v2.timeMs, v3.timeMs, full.cliques,
        p._1, p._2, p._3, p._4)
      (row, Seq(abbr) ++ stats.map(spread) ++ Seq(full.cliques.toString) ++
        Seq(p._1, p._2, p._3, p._4).map(f2))
    }
    val text = formatTable(
      Seq("abbr", "RMCEdegen (ms)", "Variant1 (ms)", "Variant2 (ms)", "Variant3 (ms)", "cliques",
        "paper(s): full", "V1", "V2", "V3"),
      built.map(_._2))
    (text, built.map(_._1))
  }

  // -------------------------------------------------------------------
  // Figure 7 (as a table): speedups of RMCE over each baseline recursion.
  // -------------------------------------------------------------------
  final case class SpeedupRow(abbr: String, recursion: String, tBase: Double,
                              tRmce: Double, speedup: Double, cliques: Long,
                              baseCalls: Long, rmceCalls: Long)

  def fig7(reps: Int): (String, Seq[SpeedupRow]) = {
    val cfgs = RecursionKind.all.flatMap(k => Seq(RmceConfig.baseline(k), RmceConfig.rmce(k)))
    val built = allAbbrs.flatMap { abbr =>
      val stats = timeLocal(abbr, Datasets.byAbbr(abbr).csr, cfgs, reps)
      RecursionKind.all.zipWithIndex.map { case (k, i) =>
        val (base, rmce) = (stats(2 * i), stats(2 * i + 1))
        val row = SpeedupRow(abbr, k.name, base.timeMs, rmce.timeMs, base.timeMs / rmce.timeMs,
          base.cliques, base.metrics.recursiveCalls, rmce.metrics.recursiveCalls)
        (row, Seq(abbr, k.name, spread(base), spread(rmce), f2(row.speedup) + "x",
          row.cliques.toString))
      }
    }
    val text = formatTable(
      Seq("abbr", "recursion", "BK (ms)", "RMCE (ms)", "speedup", "cliques"),
      built.map(_._2))
    (text, built.map(_._1))
  }

  // -------------------------------------------------------------------
  // Figure 8 (as a table): global reduction deleted-vertex/edge ratios.
  // -------------------------------------------------------------------
  final case class ReductionRow(abbr: String, n: Int, m: Long,
                                vRatio: Double, eRatio: Double, preReported: Long)

  def fig8(): (String, Seq[ReductionRow]) = {
    val rows = allAbbrs.map { abbr =>
      val g = Datasets.byAbbr(abbr).csr
      val sink = new CountingSink
      val metrics = new Metrics(g.n)
      GlobalReduction(g, sink, metrics)
      ReductionRow(abbr, g.n, g.m,
        metrics.globalDeletedVertices.toDouble / g.n,
        metrics.globalDeletedEdges.toDouble / g.m,
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

  def fig9(): (String, Seq[CallsRow]) = {
    val rows = for {
      abbr <- allAbbrs
      k <- RecursionKind.all
    } yield {
      val g = Datasets.byAbbr(abbr).csr
      val base = Rmce.run(g, RmceConfig.baseline(k), new CountingSink).recursiveCalls
      val rmce = Rmce.run(g, RmceConfig.rmce(k), new CountingSink).recursiveCalls
      val ratio =
        if (base == 0) if (rmce == 0) 0.0 else 1.0
        else rmce.toDouble / base
      CallsRow(abbr, k.name, base, rmce, ratio)
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
      val g = Datasets.byAbbr(abbr).csr
      val m = Rmce.run(g, RmceConfig.rmce(RecursionKind.Degen), new CountingSink)
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

  def fig11(): (String, Seq[VisitsRow]) = {
    val degreesPerGraph = 6
    val rows = Datasets.fig11Abbrs.flatMap { abbr =>
      val g = Datasets.byAbbr(abbr).csr
      val degOf = Array.tabulate(g.n)(g.degree)
      // Cliques-per-degree: each maximal clique counts once per member.
      val cliquesPerVertex = new Array[Long](g.n)
      val sink = new CliqueSink {
        override def report(vs: Array[Int], len: Int): Unit = {
          var i = 0
          while (i < len) { cliquesPerVertex(vs(i)) += 1; i += 1 }
        }
      }
      val vBk = Rmce.run(g, RmceConfig.baseline(RecursionKind.Degen), sink).visitsByDegree(degOf)
      val cliquesByDeg = mutable.Map.empty[Int, Long]
      for (v <- 0 until g.n if cliquesPerVertex(v) > 0)
        cliquesByDeg(degOf(v)) = cliquesByDeg.getOrElse(degOf(v), 0L) + cliquesPerVertex(v)

      def visits(cfg: RmceConfig): Map[Int, Long] =
        Rmce.run(g, cfg, new CountingSink).visitsByDegree(degOf)
      val vRcd = visits(RmceConfig.baseline(RecursionKind.Rcd))
      val vRmce = visits(RmceConfig.rmce(RecursionKind.Degen))
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
    val cfgs = Seq(RmceConfig.baseline(RecursionKind.Degen), RmceConfig.rmce(RecursionKind.Degen))
    val edgesOf = abbrs.map { abbr =>
      val edges = Datasets.edgesDF(spark, abbr).cache()
      edges.count()
      abbr -> edges
    }
    // One untimed run per config first, so JIT and Spark warm-up do not
    // land on the first timed row.
    edgesOf.headOption.foreach { case (_, edges) =>
      cfgs.foreach(DistributedMCE.run(spark, edges, _))
    }
    val rows = edgesOf.flatMap { case (abbr, edges) =>
      cfgs.map { cfg =>
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
