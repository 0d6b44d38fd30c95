package repro.core

import repro.graph.CsrGraph
import scala.util.Random

/** Shared fixtures for kernel tests: small named graphs plus deterministic
  * random graphs in several structural regimes.
  */
object TestGraphs {

  def fromEdges(n: Int, edges: (Int, Int)*): CsrGraph = CsrGraph.fromEdges(n, edges)

  /** The toy graph of the paper's Figure 2 (u1..u10 → 0..9): a dense core
    * {u1..u5}, u8 attached to the core, non-triangle edges (u2,u6), (u3,u7),
    * u6/u7 also attached to u8, and a pendant u10 on u4.
    */
  val figure2: CsrGraph = fromEdges(10,
    (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4),
    (3, 9),            // u4-u10 pendant
    (1, 5), (2, 6),    // u2-u6, u3-u7 non-triangle edges
    (0, 7), (1, 7), (2, 7), (5, 7), (6, 7)) // u8 adjacent to u1,u2,u3,u6,u7

  /** Triangle with a pendant. */
  val paw: CsrGraph = fromEdges(4, (0, 1), (0, 2), (1, 2), (2, 3))

  /** Two triangles sharing an edge (diamond / K4 minus an edge). */
  val diamond: CsrGraph = fromEdges(4, (0, 1), (0, 2), (1, 2), (1, 3), (2, 3))

  val k4: CsrGraph = fromEdges(4, (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
  val k6: CsrGraph = complete(6)

  val path5: CsrGraph = fromEdges(5, (0, 1), (1, 2), (2, 3), (3, 4))
  val cycle6: CsrGraph = fromEdges(6, (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0))
  val star5: CsrGraph = fromEdges(6, (0, 1), (0, 2), (0, 3), (0, 4), (0, 5))
  val singleEdge: CsrGraph = fromEdges(2, (0, 1))

  /** G(n, p) with at least one edge (deterministic in (n, p, seed)). */
  def gnp(n: Int, p: Double, seed: Long): CsrGraph = {
    val rnd = new Random(seed)
    val edges = for {
      i <- 0 until n
      j <- (i + 1) until n
      if rnd.nextDouble() < p
    } yield (i, j)
    if (edges.isEmpty) fromEdges(n, (0, 1)) else fromEdges(n, edges: _*)
  }

  /** A mixed-regime random graph: a dense core, a sparse periphery, pendant
    * and degree-2 fringe — exercises every reduction rule at once.
    */
  def mixed(seed: Long): CsrGraph = {
    val rnd = new Random(seed)
    val nCore = 8 + rnd.nextInt(6)
    val nPeri = 10 + rnd.nextInt(10)
    val n = nCore + nPeri + 8
    val edges = scala.collection.mutable.ArrayBuffer.empty[(Int, Int)]
    for (i <- 0 until nCore; j <- (i + 1) until nCore)
      if (rnd.nextDouble() < 0.6) edges += ((i, j))
    for (v <- nCore until (nCore + nPeri)) {
      val deg = 1 + rnd.nextInt(3)
      for (_ <- 0 until deg) edges += ((v, rnd.nextInt(v)))
    }
    // fringe: pendants and degree-2 bridges
    for (v <- (nCore + nPeri) until n) {
      edges += ((v, rnd.nextInt(nCore + nPeri)))
      if (rnd.nextBoolean()) edges += ((v, rnd.nextInt(nCore + nPeri)))
    }
    CsrGraph.fromEdges(n, edges)
  }

  // Dense cores: the regime where the dynamic and maximality-check
  // reductions must not cost more than the BK pivot scan they wrap.

  /** The complete graph K_k on `0 until k`. */
  def complete(k: Int): CsrGraph =
    CsrGraph.fromEdges(k, for (i <- 0 until k; j <- (i + 1) until k) yield (i, j))

  /** K_k plus a fringe: pendant `k + j` hangs off core vertex `(7j) mod k`
    * for `j < pendants`, and bridge `k + pendants + j` joins core vertices
    * `j` and `j + 1` for `j < bridges`. Returns the graph and its maximal
    * cliques: the core, every pendant edge and every bridge triangle.
    */
  def completeWithFringe(k: Int, pendants: Int, bridges: Int): (CsrGraph, Set[Set[Int]]) = {
    val pend = (0 until pendants).map(j => (k + j, (7 * j) % k))
    val bridge = (0 until bridges).flatMap { j =>
      val b = k + pendants + j
      Seq((b, j), (b, j + 1))
    }
    val expected = Set((0 until k).toSet) ++
      pend.map { case (a, b) => Set(a, b) } ++
      (0 until bridges).map(j => Set(k + pendants + j, j, j + 1))
    (CsrGraph.fromEdges(k + pendants + bridges, complete(k).edges ++ pend ++ bridge), expected)
  }

  /** G(n, p) with a clique planted on `k` vertices spread over the labels
    * (every `n / k`-th vertex).
    */
  def plantedClique(n: Int, p: Double, k: Int, seed: Long): CsrGraph = {
    val members = (0 until k).map(_ * (n / k))
    val planted = for (a <- members; b <- members if a < b) yield (a, b)
    CsrGraph.fromEdges(n, gnp(n, p, seed).edges ++ planted)
  }

  /** A K_k beside a sparse core, plus hubs. Vertices `0 until core` form
    * G(core, p); the next `k` form a K_k whose members each have one edge
    * into the core; the last `hubs` are adjacent to each other and to a
    * random half of all the rest. A hub's row is then far longer than the
    * candidate set of most roots whose neighbourhood holds it.
    */
  def hubbedClique(core: Int, p: Double, k: Int, hubs: Int, seed: Long): CsrGraph = {
    val rnd = new Random(seed)
    val members = core until core + k
    val hubIds = (core + k) until (core + k + hubs)
    val edges = gnp(core, p, seed).edges.toSeq ++
      (for (a <- members; b <- members if a < b) yield (a, b)) ++
      members.map(m => (rnd.nextInt(core), m)) ++
      (for (a <- hubIds; b <- hubIds if a < b) yield (a, b)) ++
      (for (h <- hubIds; v <- 0 until core + k if rnd.nextBoolean()) yield (v, h))
    CsrGraph.fromEdges(core + k + hubs, edges)
  }

  /** Moon–Moser graph: `t` groups of 3 with every edge between groups; its
    * maximal cliques are the 3^t transversals.
    */
  def moonMoser(t: Int): CsrGraph =
    CsrGraph.fromEdges(3 * t, for {
      i <- 0 until 3 * t
      j <- (i + 1) until 3 * t
      if i / 3 != j / 3
    } yield (i, j))

  /** All RMCE/BK configurations: 4 recursions × 8 reduction subsets. */
  val allConfigs: Seq[RmceConfig] = for {
    k <- RecursionKind.all
    g <- Seq(false, true)
    d <- Seq(false, true)
    m <- Seq(false, true)
  } yield RmceConfig(k, g, d, m)

  /** Run one config, returning the full clique set. */
  def enumerate(g: CsrGraph, cfg: RmceConfig): Set[Set[Int]] = {
    val sink = new CollectingSink
    Rmce.run(g, cfg, sink)
    sink.asSet
  }
}
