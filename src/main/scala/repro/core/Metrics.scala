package repro.core

/** Instrumentation counters for one enumeration run.
  *
  * These back the paper's evaluation artefacts: recursive-call counts
  * (Fig. 9), per-vertex visit counts bucketed by original degree (Figs. 1
  * and 11), global-reduction yield (Fig. 8), and forbidden-set reduction
  * ratios (Fig. 10). `vertexVisits` is indexed by *original* vertex id; a
  * "visit" is one appearance of a vertex in the `P` or `X` set of a
  * recursive call, the same definition for every algorithm so ratios are
  * comparable. This is the one record of a run's counters: result types
  * (`BenchRunner.RunStats`, `DistributedMCE.Result`) carry it rather than
  * copies of its fields.
  */
final class Metrics(val n: Int) extends Serializable {
  var recursiveCalls: Long = 0L
  /** Cliques reported ahead of the search by global reduction. */
  var preReportedGlobal: Long = 0L
  /** Cliques reported ahead of a branch by dynamic reduction. */
  var preReportedDynamic: Long = 0L
  var globalDeletedVertices: Long = 0L
  var globalDeletedEdges: Long = 0L
  /** Root subproblems (one per surviving vertex). */
  var rootSubproblems: Long = 0L
  /** Σ|X| over root subproblems before maximality check reduction. */
  var forbiddenXTotal: Long = 0L
  /** Σ|X′| over root subproblems after maximality check reduction. */
  var forbiddenXKept: Long = 0L
  /** Root subproblems where the reduction strictly shrank X. */
  var forbiddenReducedRoots: Long = 0L
  /** Visits per original vertex id. */
  val vertexVisits: Array[Long] = new Array[Long](n)

  def visit(orig: Int): Unit = vertexVisits(orig) += 1L

  def merge(other: Metrics): Metrics = {
    require(other.n == n, s"cannot merge metrics over $n and ${other.n} vertices")
    recursiveCalls += other.recursiveCalls
    preReportedGlobal += other.preReportedGlobal
    preReportedDynamic += other.preReportedDynamic
    globalDeletedVertices += other.globalDeletedVertices
    globalDeletedEdges += other.globalDeletedEdges
    rootSubproblems += other.rootSubproblems
    forbiddenXTotal += other.forbiddenXTotal
    forbiddenXKept += other.forbiddenXKept
    forbiddenReducedRoots += other.forbiddenReducedRoots
    var i = 0
    while (i < n) { vertexVisits(i) += other.vertexVisits(i); i += 1 }
    this
  }

  /** Fraction of forbidden-set entries kept at root subproblems (paper's
    * r_vertex is the *pruned* complement; see Fig. 10 bench).
    */
  def forbiddenKeepRatio: Double =
    if (forbiddenXTotal == 0L) 1.0 else forbiddenXKept.toDouble / forbiddenXTotal

  def forbiddenReducedRootRatio: Double =
    if (rootSubproblems == 0L) 0.0 else forbiddenReducedRoots.toDouble / rootSubproblems

  /** Total visits bucketed by the given per-vertex degree array. */
  def visitsByDegree(degree: Array[Int]): Map[Int, Long] = {
    require(degree.length == n)
    val m = scala.collection.mutable.Map.empty[Int, Long]
    var i = 0
    while (i < n) {
      if (vertexVisits(i) != 0L)
        m(degree(i)) = m.getOrElse(degree(i), 0L) + vertexVisits(i)
      i += 1
    }
    m.toMap
  }
}
