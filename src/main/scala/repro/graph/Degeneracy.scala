package repro.graph

/** Linear-time core decomposition and degeneracy ordering (Matula–Beck
  * bucket peel), Definition 3/4 of the paper.
  */
object Degeneracy {

  /** Result of a peel: `order(i)` is the i-th vertex in degeneracy order,
    * and `degeneracy` is the graph's degeneracy λ (the maximum core number,
    * 0 for edgeless graphs). The degree-0 vertices form the prefix of
    * `order`.
    */
  final case class Decomposition(order: Array[Int], degeneracy: Int)

  /** Peel vertices by repeatedly removing a minimum-degree vertex, using the
    * classic bucket queue so the whole pass is O(n + m).
    */
  def decompose(g: CsrGraph): Decomposition = {
    val n = g.n
    if (n == 0) return Decomposition(Array.empty, 0)

    val deg = new Array[Int](n)
    var v = 0
    while (v < n) { deg(v) = g.degree(v); v += 1 }
    val maxDeg = g.maxDegree

    // Bucket layout: vertices sorted by current degree (counting sort),
    // with back-pointers so a degree decrement is an O(1) swap.
    val binStart = new Array[Int](maxDeg + 2)
    v = 0
    while (v < n) { binStart(deg(v) + 1) += 1; v += 1 }
    var d = 0
    while (d <= maxDeg) { binStart(d + 1) += binStart(d); d += 1 }
    val fill = binStart.clone()
    val vert = new Array[Int](n) // vertices sorted by current degree
    val pos = new Array[Int](n)  // position of each vertex in `vert`
    v = 0
    while (v < n) {
      pos(v) = fill(deg(v)); vert(pos(v)) = v; fill(deg(v)) += 1
      v += 1
    }

    // A vertex is peeled at its current degree, which never falls below
    // that of an earlier peeled vertex, so it is its core number. The test
    // `deg(w) > deg(u)` therefore skips every peeled `w` without a flag.
    val order = new Array[Int](n)
    var degeneracy = 0

    var i = 0
    while (i < n) {
      val u = vert(i)
      order(i) = u
      if (deg(u) > degeneracy) degeneracy = deg(u)
      var j = g.offsets(u)
      val end = g.offsets(u + 1)
      while (j < end) {
        val w = g.adj(j)
        if (deg(w) > deg(u)) {
          // Move w to the front of its bucket, then shrink its degree.
          val dw = deg(w)
          val pw = pos(w)
          val front = binStart(dw)
          val other = vert(front)
          if (other != w) {
            vert(front) = w; vert(pw) = other
            pos(w) = front; pos(other) = pw
          }
          binStart(dw) += 1
          deg(w) = dw - 1
        }
        j += 1
      }
      i += 1
    }
    Decomposition(order, degeneracy)
  }

  /** Just the degeneracy λ. */
  def degeneracy(g: CsrGraph): Int = decompose(g).degeneracy
}
