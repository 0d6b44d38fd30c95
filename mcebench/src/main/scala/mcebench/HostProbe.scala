package mcebench

import java.lang.management.ManagementFactory

/** Host-speed probe: fixed pieces of the benchmark's own work, timed
  * between ops in this thread's CPU time, as ops are. An op's time scaled
  * by `pRefUs / mean(probe before, probe after)` is its time at reference
  * host speed.
  *
  * The host this benchmark was calibrated on (a shared 4-core Linux VM,
  * JDK 17) moves for seconds to minutes between fast and slow states; an
  * op's CPU time varied by up to 1.75x within one JVM. The states do not
  * slow all work alike: cache-resident merging swings more than a walk
  * over the op's memory. So the probe is the geometric mean of two parts:
  *
  *  - `fixedUs`: the triangles at the first `vertices` vertices of a fixed
  *    Holme–Kim graph, counted by merging sorted neighbour lists (the
  *    search's kind of work), fastest of three runs;
  *  - `inputUs`: a CSR of the workload's own edge list, built into arrays
  *    allocated once, and its triangle count (the op's memory footprint).
  *
  * Over 150 s with competing processes started and stopped, the spread of
  * 10-second medians of op time was 9.5% (sparse_fringe) and 17% (dense_core)
  * raw; scaled by `fixedUs` alone 3.1% and 4.3%, by `inputUs` alone 1.4% and
  * 4.6%, and by their geometric mean 1.6% and 1.3% (coefficients of
  * variation).
  */
final class HostProbe(in: Input, vertices: Int) {
  private val cpu = ManagementFactory.getThreadMXBean
  private var sink = 0L // keeps the counts live, so the JIT cannot drop the work

  private val (fixedOffsets, fixedAdj) = {
    val g = Inputs.probeGraph()
    require(vertices <= g.n, s"probe graph has only ${g.n} vertices")
    val off = new Array[Int](g.n + 1)
    g.edges.foreach { case (u, _) => off(u + 1) += 1 }
    for (v <- 0 until g.n) off(v + 1) += off(v)
    // Edges are sorted by (u, v), so each row of later neighbours is sorted.
    (off, g.edges.map(_._2))
  }

  private val offsets = new Array[Int](in.n + 1)
  private val fill = new Array[Int](in.n)
  private val adj = new Array[Int](2 * in.m)

  /** Triangles found at each `u < until` by merging the rest of u's row
    * with the row of each later neighbour `v > u` in it.
    */
  private def triangles(off: Array[Int], adj: Array[Int], until: Int): Long = {
    var count = 0L
    var u = 0
    while (u < until) {
      val end = off(u + 1)
      var i = off(u)
      while (i < end) {
        val v = adj(i)
        if (v > u) {
          var a = i + 1
          var b = off(v)
          val bEnd = off(v + 1)
          while (a < end && b < bEnd) {
            val x = adj(a)
            val y = adj(b)
            if (x < y) a += 1
            else if (x > y) b += 1
            else { count += 1; a += 1; b += 1 }
          }
        }
        i += 1
      }
      u += 1
    }
    count
  }

  private def fixedOnceNs(): Long = {
    val t0 = cpu.getCurrentThreadCpuTime
    sink += triangles(fixedOffsets, fixedAdj, vertices)
    cpu.getCurrentThreadCpuTime - t0
  }

  private def inputOnceNs(): Long = {
    val t0 = cpu.getCurrentThreadCpuTime
    val es = in.edges
    java.util.Arrays.fill(offsets, 0)
    var i = 0
    while (i < es.length) { val e = es(i); offsets(e._1 + 1) += 1; offsets(e._2 + 1) += 1; i += 1 }
    var v = 0
    while (v < in.n) { offsets(v + 1) += offsets(v); fill(v) = offsets(v); v += 1 }
    // Edges are sorted by (u, v), so every row comes out sorted.
    i = 0
    while (i < es.length) {
      val e = es(i)
      adj(fill(e._1)) = e._2; fill(e._1) += 1
      adj(fill(e._2)) = e._1; fill(e._2) += 1
      i += 1
    }
    sink += triangles(offsets, adj, in.n)
    cpu.getCurrentThreadCpuTime - t0
  }

  def fixedUs(): Double = math.min(fixedOnceNs(), math.min(fixedOnceNs(), fixedOnceNs())) / 1000.0

  def inputUs(): Double = inputOnceNs() / 1000.0

  /** The probe time in µs: the geometric mean of the two parts. */
  def measureUs(): Double = math.sqrt(fixedUs() * inputUs())

  /** Compile the probe before it is first used for a measurement. */
  def warm(): Unit = {
    for (_ <- 0 until 100) fixedOnceNs()
    for (_ <- 0 until 10) inputOnceNs()
  }
}
