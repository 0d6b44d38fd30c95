package mcebench

import scala.collection.mutable

/** splitmix64 stream. The benchmark's inputs depend only on this generator
  * and the seed, never on `scala.util.Random` or the program's own
  * generators, so an edit elsewhere cannot silently change a workload.
  */
final class Rng(seed: Long) {
  private var state = seed

  def nextLong(): Long = {
    val z = Inputs.mix(state)
    state += 0x9E3779B97F4A7C15L
    z
  }

  def nextInt(bound: Int): Int = ((nextLong() >>> 1) % bound).toInt

  def nextDouble(): Double = (nextLong() >>> 11) * (1.0 / (1L << 53))
}

/** An undirected graph over `0 until n` with no isolated vertex, as sorted,
  * duplicate-free edges `u < v`.
  */
final class Input(val n: Int, packed: Array[Long]) {
  def m: Int = packed.length

  val edges: Array[(Int, Int)] = packed.map(e => ((e >>> 32).toInt, e.toInt))

  /** Hash of the edge list, recorded per workload to detect a changed input. */
  val hash: String = {
    var h = 0x6A09E667F3BCC908L ^ n
    packed.foreach(e => h = Inputs.mix(h ^ e))
    f"$h%016x"
  }
}

/** Seeded generators for the two workloads and the Spark input. */
object Inputs {

  /** splitmix64 finaliser of `x0` plus the golden-ratio increment. */
  def mix(x0: Long): Long = {
    var x = x0 + 0x9E3779B97F4A7C15L
    x = (x ^ (x >>> 30)) * 0xBF58476D1CE4E5B9L
    x = (x ^ (x >>> 27)) * 0x94D049BB133111EBL
    x ^ (x >>> 31)
  }

  def apply(workload: String, seed: Long): Input = workload match {
    case "sparse_fringe" => sparseFringe(seed)
    case "dense_core"    => denseCore(seed)
    case other           => throw new IllegalArgumentException(s"unknown workload $other")
  }

  /** Holme–Kim core (60k vertices, 3 edges per arrival, triad closure 0.35)
    * with 30k degree-1 and 12k degree-2 pendants: the fringe that global
    * reduction removes.
    */
  def sparseFringe(seed: Long): Input = {
    val rng = new Rng(seed)
    val b = new EdgeBuilder
    val core = 60000
    holmeKim(b, core, 3, 0.35, rng)
    var next = core
    for (_ <- 0 until 30000) { b.add(next, rng.nextInt(core)); next += 1 }
    for (_ <- 0 until 12000) {
      val a = rng.nextInt(core)
      var c = rng.nextInt(core)
      while (c == a) c = rng.nextInt(core)
      b.add(next, a); b.add(next, c); next += 1
    }
    b.result()
  }

  /** The host probe's fixed graph: the dense core's recipe without the
    * planted clique, from a constant seed.
    */
  def probeGraph(): Input = {
    val b = new EdgeBuilder
    holmeKim(b, 3000, 16, 0.5, new Rng(0x5EEDL))
    b.result()
  }

  /** Holme–Kim core (3,000 vertices, 16 edges per arrival, closure 0.5)
    * plus a planted K400 on fresh ids, each of whose vertices has one edge
    * into the core: a degeneracy of 399 that the search must handle.
    */
  def denseCore(seed: Long): Input = {
    val rng = new Rng(seed)
    val b = new EdgeBuilder
    val core = 3000
    val k = 400
    holmeKim(b, core, 16, 0.5, rng)
    for (i <- 0 until k) {
      for (j <- i + 1 until k) b.add(core + i, core + j)
      b.add(core + i, rng.nextInt(core))
    }
    b.result()
  }

  /** The Spark path's input: a collaboration-style union of 1,000 random
    * cliques of size 4–10 over 2,000 ids, a quarter of the members drawn
    * from a hot pool of 100.
    */
  def cliqueUnion(seed: Long): Input = {
    val rng = new Rng(seed)
    val b = new EdgeBuilder
    val ids = 2000
    val hot = ids / 20
    for (_ <- 0 until 1000) {
      val size = 4 + rng.nextInt(7)
      val members = mutable.LinkedHashSet.empty[Int]
      while (members.size < size)
        members += (if (rng.nextDouble() < 0.25) rng.nextInt(hot) else rng.nextInt(ids))
      val arr = members.toArray
      for (i <- arr.indices; j <- i + 1 until arr.length) b.add(arr(i), arr(j))
    }
    b.result()
  }

  /** Preferential attachment with triad formation (Holme & Kim 2002):
    * each arriving vertex attaches `k` edges; after the first, each edge
    * closes a triangle with probability `closure`.
    */
  private def holmeKim(b: EdgeBuilder, n: Int, k: Int, closure: Double, rng: Rng): Unit = {
    val adj = Array.fill(n)(mutable.ArrayBuffer.empty[Int])
    val ends = mutable.ArrayBuffer.empty[Int] // endpoint multiset: degree-proportional picks
    def link(a: Int, c: Int): Unit = {
      adj(a) += c; adj(c) += a; ends += a; ends += c; b.add(a, c)
    }
    for (i <- 0 to k; j <- i + 1 to k) link(i, j)
    for (t <- k + 1 until n) {
      var added = 0
      var last = -1
      while (added < k) {
        val cand =
          if (last >= 0 && rng.nextDouble() < closure) adj(last)(rng.nextInt(adj(last).size))
          else ends(rng.nextInt(ends.size))
        if (cand != t && !adj(t).contains(cand)) { link(t, cand); last = cand; added += 1 }
        else last = -1
      }
    }
  }

  /** Collects edges, then canonicalises: no self-loops or duplicates, ids
    * compacted to `0 until n` in increasing order.
    */
  private final class EdgeBuilder {
    private val buf = mutable.ArrayBuilder.make[Long]

    def add(a: Int, c: Int): Unit =
      if (a != c) buf += (math.min(a, c).toLong << 32) | math.max(a, c).toLong

    def result(): Input = {
      val raw = buf.result()
      java.util.Arrays.sort(raw)
      val uniq = raw.distinct
      val ids = uniq.flatMap(e => Array((e >>> 32).toInt, e.toInt)).distinct.sorted
      def pos(v: Int): Long = java.util.Arrays.binarySearch(ids, v).toLong
      val packed = uniq.map(e => (pos((e >>> 32).toInt) << 32) | pos(e.toInt))
      java.util.Arrays.sort(packed)
      new Input(ids.length, packed)
    }
  }
}
