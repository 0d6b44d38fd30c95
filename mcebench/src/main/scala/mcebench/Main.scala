package mcebench

import java.lang.management.{ManagementFactory, MemoryType}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

import repro.core._
import repro.graph.{CsrGraph, Degeneracy}

/** One benchmark JVM: builds a workload's input from the seed, times the
  * program's set-up, warms up with a fixed number of ops, then times ops
  * for the requested seconds and prints one `MCEBENCH {json}` line with the
  * raw samples. `run.py` launches it with fixed JVM flags and aggregates.
  *
  * An op is the program's path from an in-memory edge list to a verified
  * clique count: `CsrGraph.fromEdges` then `Rmce.run`. Every op runs
  * RMCEdegen, the paper's headline configuration. An op's time is its busy
  * time (CPU time of this thread plus GC pauses) scaled to reference host
  * speed with [[HostProbe]].
  *
  * The traced run also drives the Spark path, `DistributedMCE.run`, on a
  * fixed small input ([[Inputs.cliqueUnion]]) for the `spark.*` layers.
  */
object Main {
  private val RmceDegen = RmceConfig.rmce(RecursionKind.Degen)
  private val BkDegen = RmceConfig.baseline(RecursionKind.Degen)

  /** Ops after the set-up op and before measuring: a fixed count, never
    * "until stable", so every run warms up alike.
    */
  private val WarmupOps = 10
  /** Spark ops after the session starts (still warming at the 7th op),
    * then traced Spark ops; the spark.* layers have no bound.
    */
  private val SparkWarmupOps = 3
  private val SparkTracedOps = 3

  /** Seed of the input that [[HostProbe]] walks, on every run. */
  private val ProbeSeed = 1L

  final class Args(argv: Array[String]) {
    private val kv = argv.grouped(2).map {
      case Array(k, v) => k.stripPrefix("--") -> v
      case other       => throw new IllegalArgumentException(s"bad arguments ${other.mkString(" ")}")
    }.toMap
    private def get(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val workload: String = get("workload")
    val seed: Long = get("seed").toLong
    val seconds: Double = get("seconds").toDouble
    val trace: Boolean = get("trace") == "1"
    val setupOnly: Boolean = get("mode") == "setup"
    val pRefUs: Double = get("pref-us").toDouble
    val probeVertices: Int = get("probe-vertices").toInt
    val threads: Int = get("threads").toInt
    val shufflePartitions: Int = get("shuffle-partitions").toInt
    val workDir: String = get("work-dir")
    /** Pinned `n,m,hash,count,checksum` of the workload's input for this
      * seed, and of the Spark input, if recorded.
      */
    val expect: Option[Array[String]] = kv.get("expect").map(_.split(','))
    val sparkExpect: Option[Array[String]] = kv.get("spark-expect").map(_.split(','))
  }

  /** One timed call: its busy time at reference host speed, its raw wall
    * time, the mean probe time in µs, and `scale`, the factor from this
    * host's speed to the reference speed. The record adds the wall time
    * at reference speed, which setup_s uses.
    */
  final case class Sample(ms: Double, wallMs: Double, probeUs: Double, scale: Double) {
    def json: Seq[Double] = Seq(ms, wallMs, probeUs, wallMs * scale)
  }

  /** Checks `in` against a pinned record and returns its (count, checksum);
    * without one, computes them with BKdegen. Call outside timed regions.
    */
  def reference(name: String, seed: Long, in: Input, pinned: Option[Array[String]]): (Long, Long) =
    pinned match {
      case Some(e) =>
        require(e(0).toInt == in.n && e(1).toInt == in.m && e(2) == in.hash,
          s"input of $name seed $seed is n=${in.n} m=${in.m} hash=${in.hash}; " +
          s"expected n=${e(0)} m=${e(1)} hash=${e(2)}")
        (e(3).toLong, e(4).toLong)
      case None => localOp(in, BkDegen)
    }

  def main(argv: Array[String]): Unit = {
    val a = new Args(argv)
    val input = Inputs(a.workload, a.seed)
    // The probe walks its own copy of the workload's input for one fixed
    // seed, so that its work, and the heap it holds, is the same in every
    // run whatever the seed of the ops.
    val probe = new HostProbe(Inputs(a.workload, ProbeSeed), a.probeVertices)
    probe.warm()

    // An op's busy time is the CPU time of this thread plus the GC pauses
    // it waited for. Unlike wall time it leaves out the time the thread
    // was not running: preempted by another thread or process, or by the
    // hypervisor (steal time, which the kernel's task clock excludes).
    val cpu = ManagementFactory.getThreadMXBean
    val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala
    def busyNs(): Long = cpu.getCurrentThreadCpuTime + gcs.map(_.getCollectionTime).sum * 1000000L

    // Probes and timed calls alternate: the probe after one call is the
    // probe before the next.
    var lastProbeUs = probe.measureUs()
    def timed[T](body: => T): (T, Sample) = {
      val p0 = lastProbeUs
      val t0 = System.nanoTime()
      val b0 = busyNs()
      val r = body
      val busy = (busyNs() - b0) / 1e6
      val wall = (System.nanoTime() - t0) / 1e6
      lastProbeUs = probe.measureUs()
      val p = (p0 + lastProbeUs) / 2
      val scale = a.pRefUs / p
      (r, Sample(busy * scale, wall, p, scale))
    }

    def guarded(body: => (Long, Long)): (Long, Long) =
      try body
      catch { case e: Exception => Console.err.println(s"op failed: $e"); (-1L, -1L) }

    // Set-up: the first op, timed from a cold JVM before any other call
    // into the program.
    val (setupResult, firstOp) = timed(guarded(localOp(input, RmceDegen)))

    // Reference (count, checksum): pinned for the default seed, otherwise
    // computed once with BKdegen. Both stay outside every timed region.
    val expected = reference(a.workload, a.seed, input, a.expect)
    var attempted = 1
    var failed = if (setupResult == expected) 0 else 1

    val out = mutable.LinkedHashMap[String, Any](
      "workload" -> a.workload, "seed" -> a.seed, "n" -> input.n, "m" -> input.m,
      "hash" -> input.hash, "count" -> expected._1, "checksum" -> expected._2,
      "setup_op" -> firstOp.json)

    // Every op starts from a collected heap, so no op pays for garbage an
    // earlier op left behind and the heap peak is one op's.
    def attempt(want: (Long, Long))(body: => (Long, Long)): Sample = {
      attempted += 1
      System.gc()
      val (res, s) = timed(guarded(body))
      if (res != want) failed += 1
      s
    }

    if (!a.setupOnly) {
      for (_ <- 0 until WarmupOps) attempt(expected)(localOp(input, RmceDegen))
      val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)
      System.gc()
      heapPools.foreach(_.resetPeakUsage())
      val deadline = System.nanoTime() + (a.seconds * 1e9).toLong
      val plain = mutable.ArrayBuffer.empty[Sample]
      if (!a.trace) {
        while (System.nanoTime() < deadline) plain += attempt(expected)(localOp(input, RmceDegen))
        out("heap_peak_mb") = heapPools.map(_.getPeakUsage.getUsed).sum / 1048576.0
      } else {
        // Untraced, traced and baseline ops interleave so that all three
        // see the same host states; traced minus untraced is the overhead.
        val tracer = new Tracer
        val traced = mutable.ArrayBuffer.empty[Sample]
        val ref = mutable.ArrayBuffer.empty[Sample]
        var last: Traced = null
        while (System.nanoTime() < deadline) {
          plain += attempt(expected)(localOp(input, RmceDegen))
          val opId = tracer.nextOp()
          val s = attempt(expected) {
            last = tracer.span(opId, "op")(localLayers(input, tracer, opId))
            (last.sink.count, last.sink.checksum)
          }
          traced += s
          prepareHalves(last.graph, tracer, opId)
          tracer.finish(opId, s.scale)
          ref += attempt(expected)(localOp(input, BkDegen))
        }

        // The Spark path on its own fixed input, after the local ops.
        val sparkIn = Inputs.cliqueUnion(a.seed)
        val sparkExpected = reference("spark input", a.seed, sparkIn, a.sparkExpect)
        val farm = new SparkFarm(sparkIn, a.threads, a.shufflePartitions, a.workDir)
        try {
          for (_ <- 0 until SparkWarmupOps) attempt(sparkExpected)(farm.op(RmceDegen))
          for (_ <- 0 until SparkTracedOps) {
            val opId = tracer.nextOp()
            val s = attempt(sparkExpected)(farm.tracedOp(tracer, opId, RmceDegen))
            farm.standalone(tracer, opId)
            tracer.finish(opId, s.scale)
          }
        } finally farm.stop()

        tracer.writeSpans(s"${a.workDir}/spans-${a.workload}-${a.seed}.jsonl")
        out("traced") = traced.map(_.ms)
        out("ref") = ref.map(_.ms)
        out("layers") = tracer.layerValues
        out("counts") = last.counts(input.m)
      }
      out("samples") = plain.map(_.json)
    }
    out("attempted") = attempted
    out("failed") = failed
    println("MCEBENCH " + Json(out))
  }

  def localOp(in: Input, cfg: RmceConfig): (Long, Long) = {
    val sink = new CountingSink
    Rmce.run(CsrGraph.fromEdges(in.n, in.edges), cfg, sink)
    (sink.count, sink.checksum)
  }

  /** What a traced local op leaves for the counts and standalone layers. */
  final class Traced(val graph: CsrGraph, metrics: Metrics, prepared: Rmce.Prepared,
                     val sink: CountingSink) {
    /** Exact counts from `Metrics` and the sink; `edges` is the input's m. */
    def counts(edges: Int): Map[String, Double] = {
      // Global reduction leaves deleted vertices isolated; count the rest.
      val reducedN = (0 until prepared.graph.n).count(prepared.graph.degree(_) > 0)
      Map(
        "core.recursive_calls" -> metrics.recursiveCalls.toDouble,
        "core.roots" -> metrics.rootSubproblems.toDouble,
        "core.cliques" -> sink.count.toDouble,
        "core.pre_global" -> metrics.preReportedGlobal.toDouble,
        "core.pre_dynamic" -> metrics.preReportedDynamic.toDouble,
        "core.reduced_n" -> reducedN.toDouble,
        "graph.degeneracy" -> prepared.degeneracy.toDouble,
        "core.global_yield" -> metrics.globalDeletedEdges.toDouble / edges,
        "core.forbidden_keep_ratio" -> metrics.forbiddenKeepRatio,
        // Bases of the two ratios above.
        "base.m" -> edges.toDouble,
        "base.forbidden_total" -> metrics.forbiddenXTotal.toDouble)
    }
  }

  /** The local op, one span per layer call: build, prepare, search. */
  private def localLayers(in: Input, t: Tracer, opId: Int): Traced = {
    val g = t.span(opId, "graph.build")(CsrGraph.fromEdges(in.n, in.edges))
    val sink = new CountingSink
    val metrics = new Metrics(g.n)
    val prepared = t.span(opId, "core.prepare")(Rmce.prepare(g, RmceDegen, sink, metrics))
    t.span(opId, "core.search")(Rmce.runRoots(prepared, 0 until prepared.graph.n, RmceDegen, sink, metrics))
    new Traced(g, metrics, prepared, sink)
  }

  /** The two halves of `Rmce.prepare`, timed standalone on the same CSR. */
  private def prepareHalves(g: CsrGraph, t: Tracer, opId: Int): Unit = {
    val g1 = t.span(opId, "core.global")(GlobalReduction(g, new CountingSink, new Metrics(g.n)).reduced)
    t.span(opId, "graph.order") { g1.relabelled(Degeneracy.decompose(g1).order) }
  }
}
