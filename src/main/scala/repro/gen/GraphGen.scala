package repro.gen

import scala.collection.mutable
import scala.util.Random

/** Deterministic synthetic graph generators.
  *
  * The paper evaluates on 18 real SNAP / Network Repository graphs that are
  * unavailable offline; `repro.gen.Datasets` rebuilds each one's *structural
  * regime* from these primitives (see DESIGN.md "Dataset substitution").
  * Every generator is a pure function of its parameters and `seed`.
  */
object GraphGen {

  /** A generated undirected graph: vertices `0 until n` (no isolated
    * vertices — ids are compacted), edges deduplicated and self-loop-free.
    */
  final case class GeneratedGraph(n: Int, edges: Array[(Int, Int)]) {
    def toCsr: repro.graph.CsrGraph = repro.graph.CsrGraph.fromEdges(n, edges)
  }

  /** Canonicalise an edge soup: dedupe, drop self-loops, compact ids, sort. */
  def compact(raw: Iterable[(Int, Int)]): GeneratedGraph = {
    val ends = new mutable.ArrayBuilder.ofLong
    raw.foreach { case (a, b) => ends += a; ends += b }
    val (g, _) = repro.graph.CsrGraph.fromLongEdges(ends.result())
    GeneratedGraph(g.n, g.edges)
  }

  /** Holme–Kim power-law graph: preferential attachment (`mAttach` edges per
    * arriving vertex) with probability-`closure` triad formation. `closure`
    * tunes clustering/degeneracy; `mAttach` tunes density. With probability
    * `duplication` an arriving vertex instead copies a sample of a random
    * template's neighbourhood (plus the template itself) — the classic web
    * duplication model, which creates the nested neighbourhoods that
    * maximality check reduction exploits on real web graphs.
    */
  def powerLawCluster(n: Int, mAttach: Int, closure: Double, seed: Long,
                      duplication: Double = 0.0): GeneratedGraph = {
    require(n > mAttach + 1 && mAttach >= 1)
    val rnd = new Random(seed)
    val adj = Array.fill(n)(mutable.HashSet.empty[Int])
    val repeated = mutable.ArrayBuffer.empty[Int] // endpoint multiset for preferential pick
    val edges = mutable.ArrayBuffer.empty[(Int, Int)]

    def addEdge(a: Int, b: Int): Unit = {
      adj(a) += b; adj(b) += a
      repeated += a; repeated += b
      edges += (if (a < b) (a, b) else (b, a))
    }

    // Seed: a small clique so early preferential picks are well-defined.
    val m0 = mAttach + 1
    for (i <- 0 until m0; j <- (i + 1) until m0) addEdge(i, j)

    var t = m0
    while (t < n) {
      val wanted = math.min(mAttach, t)
      var added = 0
      var lastTarget = -1
      var attempts = 0
      if (duplication > 0 && rnd.nextDouble() < duplication) {
        // Duplication step: copy up to `wanted` neighbours of a template.
        val template = rnd.nextInt(t)
        val tpl = adj(template).toArray
        var k = tpl.length - 1
        while (k > 0) { // Fisher–Yates over the copied prefix
          val j = rnd.nextInt(k + 1)
          val tmp = tpl(k); tpl(k) = tpl(j); tpl(j) = tmp
          k -= 1
        }
        var i = 0
        while (i < tpl.length && added < math.max(1, wanted - 1)) {
          if (tpl(i) != t && !adj(t).contains(tpl(i))) { addEdge(t, tpl(i)); added += 1 }
          i += 1
        }
        if (!adj(t).contains(template)) { addEdge(t, template); added += 1 }
      }
      while (added < wanted && attempts < wanted * 30) {
        attempts += 1
        val triad = lastTarget >= 0 && rnd.nextDouble() < closure && adj(lastTarget).nonEmpty
        val cand =
          if (triad) {
            val nbrs = adj(lastTarget)
            val pick = rnd.nextInt(nbrs.size)
            nbrs.iterator.drop(pick).next()
          } else repeated(rnd.nextInt(repeated.size))
        if (cand != t && !adj(t).contains(cand)) {
          addEdge(t, cand)
          lastTarget = cand
          added += 1
        }
      }
      t += 1
    }
    compact(edges)
  }

  /** Union of `nCliques` random cliques (collaboration-network model). A
    * fraction of members come from a small hot pool, creating overlapping
    * cliques and hub authors.
    */
  def cliqueUnion(n: Int, nCliques: Int, minSize: Int, maxSize: Int,
                  hotFraction: Double, seed: Long): GeneratedGraph = {
    require(minSize >= 2 && maxSize >= minSize)
    val rnd = new Random(seed)
    val hotPool = math.max(2, n / 20)
    val edges = mutable.ArrayBuffer.empty[(Int, Int)]
    var c = 0
    while (c < nCliques) {
      val size = minSize + rnd.nextInt(maxSize - minSize + 1)
      val members = mutable.LinkedHashSet.empty[Int]
      var guard = 0
      while (members.size < size && guard < size * 30) {
        val v = if (rnd.nextDouble() < hotFraction) rnd.nextInt(hotPool) else rnd.nextInt(n)
        members += v
        guard += 1
      }
      val arr = members.toArray
      for (i <- arr.indices; j <- (i + 1) until arr.length) edges += ((arr(i), arr(j)))
      c += 1
    }
    compact(edges)
  }

  /** Planar 2-D grid (rows × cols, no wrap): triangle-free, max degree 4 —
    * the road-network regime where global reduction deletes everything.
    */
  def grid2d(rows: Int, cols: Int): GeneratedGraph = {
    val edges = mutable.ArrayBuffer.empty[(Int, Int)]
    def id(i: Int, j: Int) = i * cols + j
    for (i <- 0 until rows; j <- 0 until cols) {
      if (j + 1 < cols) edges += ((id(i, j), id(i, j + 1)))
      if (i + 1 < rows) edges += ((id(i, j), id(i + 1, j)))
    }
    compact(edges)
  }

  /** Toroidal triangular lattice: 6-regular, every edge in a triangle — the
    * Delaunay regime where global reduction removes *nothing*.
    */
  def triangularTorus(rows: Int, cols: Int): GeneratedGraph = {
    require(rows >= 4 && cols >= 4)
    val edges = mutable.ArrayBuffer.empty[(Int, Int)]
    def id(i: Int, j: Int) = ((i % rows + rows) % rows) * cols + ((j % cols + cols) % cols)
    for (i <- 0 until rows; j <- 0 until cols) {
      val v = id(i, j)
      edges += ((v, id(i, j + 1)))     // right
      edges += ((v, id(i + 1, j)))     // down
      edges += ((v, id(i + 1, j + 1))) // down-right diagonal
    }
    compact(edges)
  }

  /** Attach a low-degree fringe to an existing graph: `pendant1` new
    * degree-1 vertices and `pendant2` new degree-2 vertices (each wired to
    * two random — possibly non-adjacent — existing vertices). This is the
    * mass that global reduction harvests.
    */
  def withFringe(g: GeneratedGraph, pendant1: Int, pendant2: Int, seed: Long): GeneratedGraph = {
    val rnd = new Random(seed)
    val edges = mutable.ArrayBuffer.from(g.edges)
    var next = g.n
    var i = 0
    while (i < pendant1) {
      edges += ((next, rnd.nextInt(g.n)))
      next += 1; i += 1
    }
    i = 0
    while (i < pendant2) {
      val a = rnd.nextInt(g.n)
      var b = rnd.nextInt(g.n)
      var guard = 0
      while (b == a && guard < 10) { b = rnd.nextInt(g.n); guard += 1 }
      if (b != a) { edges += ((next, a)); edges += ((next, b)); next += 1 }
      i += 1
    }
    compact(edges)
  }
}
