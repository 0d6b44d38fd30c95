package repro.core

import repro.graph.{CsrGraph, Degeneracy, IntSets}

/** The reduction-based MCE framework (Alg. 4) plus the four BK recursions it
  * wraps. `RmceConfig` selects the recursion and which of the three
  * reduction techniques are active, so the paper's baselines, full RMCE
  * variants, and ablation variants are all configurations of this one
  * engine — guaranteeing that measured differences come from the reductions,
  * not incidental implementation detail.
  */
object Rmce {

  /** Enumerate all maximal cliques of `g0`, reporting into `sink`. */
  def run(g0: CsrGraph, cfg: RmceConfig, sink: CliqueSink): Metrics = {
    val metrics = new Metrics(g0.n)
    val prepared = prepare(g0, cfg, sink, metrics)
    runRoots(prepared, 0 until prepared.graph.n, cfg, sink, metrics)
    metrics
  }

  /** The graph after (optional) global reduction, restricted to the
    * vertices that still have an edge and relabelled so vertex ids follow
    * the degeneracy order; `toOrig(label)` maps back to `g0` ids. Every
    * vertex of `graph` has degree > 0, so every label is a root.
    */
  final case class Prepared(graph: CsrGraph, toOrig: Array[Int], degeneracy: Int)

  /** Global reduction + ordering; split out so the distributed driver can
    * broadcast the result and farm `runRoots` out per partition. Global
    * reduction hands over only the vertices that keep an edge, with their
    * `g0` ids; without it, the peel takes the degree-0 vertices first, so
    * the search's order is the rest.
    */
  def prepare(g0: CsrGraph, cfg: RmceConfig, sink: CliqueSink, metrics: Metrics): Prepared = {
    val reduced = if (cfg.globalReduction) Some(GlobalReduction(g0, sink, metrics)) else None
    val g1 = reduced.fold(g0)(_.reduced)
    val decomp = Degeneracy.decompose(g1)
    val all = decomp.order
    var isolated = 0
    while (isolated < all.length && g1.degree(all(isolated)) == 0) isolated += 1
    val order = if (isolated == 0) all else java.util.Arrays.copyOfRange(all, isolated, all.length)
    val graph = g1.relabelled(order) // reads `order` first: it then becomes the table to `g0` ids
    reduced.foreach { r =>
      var i = 0
      while (i < order.length) { order(i) = r.toOrig(order(i)); i += 1 }
    }
    Prepared(graph, order, decomp.degeneracy)
  }

  /** Run a subset of root subproblems (labels of `prepared.graph`, in
    * degeneracy order). Safe to call with any subset in any order —
    * reductions' shared state is scoped per call (see
    * [[ForbiddenSetReduction]] on why sharing across an arbitrary root
    * subset stays sound). A `Range` hands out its ids unboxed.
    */
  def runRoots(prepared: Prepared, roots: Range, cfg: RmceConfig,
               sink: CliqueSink, metrics: Metrics): Unit =
    new Engine(prepared.graph, prepared.toOrig, cfg, sink, metrics).runRoots(roots)
}

private object Engine {
  val EmptyInts: Array[Int] = Array.empty[Int]

  // A frame of the array recursions, at its offset `f` in the frame stack:
  // these header fields, then its P from `f + Header`. Below the frame's
  // offset lie its ancestors, above its ext end its descendants.
  /** The parent frame's offset, or -1 at the root. */
  final val Parent = 0
  /** `|P|`; P narrows in place as the call branches. */
  final val PLen = 1
  /** Where X starts; X has room for its first length plus the call's first `|P|`. */
  final val XOff = 2
  final val XLen = 3
  /** Past X's room: the removed vertices go here, then the branch set. */
  final val ExtOff = 4
  final val ExtLen = 5
  /** Index of the next branch vertex in the branch set. */
  final val Next = 6
  /** Lemma 8 vertices the call pushed onto `R`. */
  final val Hoisted = 7
  final val Header = 8
}

/** One enumeration pass: holds reusable scratch state (never share across
  * threads).
  *
  * Each root's search runs on its [[RootGraph]]: `R`, `P`, `X` and every
  * row hold that root's local ids, and reports and visits map them back
  * through `local.orig`. The maximality check reduction runs before the
  * build, on labels, since its `ignoreId` spans roots.
  *
  * The degen, revised and rcd recursions run as one loop over explicit
  * frames on a [[FrameStack]], so they add no JVM frame per branched
  * vertex and allocate nothing per call: a call's `P`, `X`, removed and
  * branch sets are slices of the stack, which its children reuse one
  * after another. A child's `P` and `X` are its parent's, intersected
  * with the branch vertex's row; the parent then drops that vertex from
  * its own `P` and adds it to its `X`, in place.
  *
  * Every recursion keeps the BK invariant "every vertex adjacent to all of
  * `R` is in `P ∪ X`": vertices the dynamic reduction drops from `P`
  * ([[DynamicReduction.removedLen]]) join `X` for the branches and the
  * base case, but are not scored as pivots.
  */
private final class Engine(
    g: CsrGraph,
    toOrig: Array[Int],
    cfg: RmceConfig,
    sink: CliqueSink,
    metrics: Metrics) {
  import Engine._

  private val local = new RootGraph(g, toOrig)
  private val dyn = new DynamicReduction(local.maxSize)
  private val fsr = new ForbiddenSetReduction(g.n)
  private val r = new IntStack()
  private val fs = new FrameStack(Header + 4 * local.maxSize)
  private val reportBuf = new Array[Int](local.maxSize)
  /** The current root's rows ([[RootGraph.adj]], [[RootGraph.off]]). */
  private var adj: Array[Int] = EmptyInts
  private var off: Array[Int] = EmptyInts

  /** Reports a clique given in local ids, as original ids. */
  private val localSink: CliqueSink = (ids, len) => {
    var i = 0
    while (i < len) { reportBuf(i) = local.orig(ids(i)); i += 1 }
    sink.report(reportBuf, len)
  }

  /** Report `R ∪ a[from, from+len)`. */
  private val scratch = new Array[Int](local.maxSize)
  private def reportRPlus(a: Array[Int], from: Int, len: Int): Unit = {
    val rl = r.copyInto(scratch)
    System.arraycopy(a, from, scratch, rl, len)
    localSink.report(scratch, rl + len)
  }

  /** Count a visit to each vertex of `a[from, from+len)`, mapped to original
    * ids by `ids`.
    */
  private def visitAll(a: Array[Int], from: Int, len: Int, ids: Array[Int]): Unit = {
    var i = from
    while (i < from + len) { metrics.visit(ids(a(i))); i += 1 }
  }

  def runRoots(roots: Range): Unit = roots.foreach(runRoot)

  /** Root `i` is the frame at offset 0: `P = N⁺(i)` and `X = N⁻(i)` are
    * copied from the CSR into its slices, and Alg. 8, the cover-first test
    * and [[RootGraph.build]] read and rewrite them there.
    */
  private def runRoot(i: Int): Unit = {
    val pLen = g.laterDegree(i)
    val xLen0 = g.split(i) - g.offsets(i)
    fs.top = 0
    fs.reserve(Header + 3 * pLen + xLen0)
    val s = fs.buf
    val pOff = Header
    val xOff = pOff + pLen
    System.arraycopy(g.adj, g.split(i), s, pOff, pLen)
    System.arraycopy(g.adj, g.offsets(i), s, xOff, xLen0)
    metrics.rootSubproblems += 1
    metrics.forbiddenXTotal += xLen0
    var xLen = xLen0
    if (cfg.maximalityReduction) {
      xLen = fsr.reduceAndUpdate(g, i, s, pOff, pLen, xOff, xLen0)
      if (xLen < xLen0) metrics.forbiddenReducedRoots += 1
    }
    metrics.forbiddenXKept += xLen
    if (endsAtOnce(s, pOff, pLen, xOff, xLen)) {
      metrics.recursiveCalls += 1
      visitAll(s, pOff, pLen, toOrig); visitAll(s, xOff, xLen, toOrig)
    } else {
      val extOff = xOff + xLen + pLen
      local.build(i, s, xOff, xLen, pOff, pLen)
      adj = local.adj
      off = local.off
      r.clear()
      r.push(local.nx)
      if (cfg.recursion == RecursionKind.Facen) new FacenRoot(pLen, xLen).run()
      else {
        s(Parent) = -1; s(PLen) = pLen; s(XOff) = xOff; s(XLen) = xLen; s(ExtOff) = extOff
        fs.top = extOff
        search()
      }
    }
  }

  /** Does the root's first call end without a branch or a report (`R = {i}`
    * is too small to report)? It does when `P` is empty, and when some
    * `x ∈ X′` covers `P`: the barren exit fires with dynamic reduction on,
    * and without it the degen, revised and facen pivot scans end on a
    * covering `x` (score `|P|`), which leaves nothing to branch on. BKrcd's
    * peel branches anyway, so only `P = ∅` ends it. Tested on labels, so
    * such a root builds no [[RootGraph]]; the caller counts the call and
    * its visits.
    */
  private def endsAtOnce(s: Array[Int], pOff: Int, pLen: Int, xOff: Int, xLen: Int): Boolean =
    pLen == 0 || ((cfg.dynamicReduction || cfg.recursion != RecursionKind.Rcd) &&
      DynamicReduction.covers(g.adj, g.offsets, s, pOff, pLen, s, xOff, xLen))

  private def scoreAgainst(u: Int, s: Array[Int], pOff: Int, pLen: Int): Int =
    IntSets.intersectSize(adj, off(u), off(u + 1), s, pOff, pOff + pLen)

  /** The search below a root whose frame is at offset 0: a depth-first walk
    * over frames. A frame branches on the vertices [[nextPivot]] or
    * [[nextRcd]] hands out; each
    * child is opened above it, and when a frame has nothing left it pops
    * its hoisted vertices, gives its space back and lets its parent move
    * the branched vertex from `P` to `X`.
    */
  private def search(): Unit = {
    val rcd = cfg.recursion == RecursionKind.Rcd
    enter(0, rcd)
    var f = 0
    while (f >= 0) {
      val w = if (rcd) nextRcd(f) else nextPivot(f)
      if (w >= 0) {
        val c = fs.top
        open(f, c, w)
        r.push(w)
        enter(c, rcd)
        f = c
      } else {
        val s = fs.buf
        var h = s(f + Hoisted)
        while (h > 0) { r.pop(); h -= 1 }
        fs.top = f
        f = s(f + Parent)
        if (f >= 0) {
          val v = r.pop()
          s(f + PLen) = IntSets.removeInPlace(s, f + Header, s(f + PLen), v)
          s(f + XLen) = IntSets.insertInPlace(s, s(f + XOff), s(f + XLen), v)
        }
      }
    }
  }

  /** Open the child of frame `f` that branches on `w`, at offset `c` (the
    * top): its `P` and `X` are `f`'s, intersected with `N(w)`.
    */
  private def open(f: Int, c: Int, w: Int): Unit = {
    val s0 = fs.buf
    val pLen = s0(f + PLen)
    val xLen = s0(f + XLen)
    fs.reserve(Header + 3 * pLen + xLen)
    val s = fs.buf
    val pOff = f + Header
    val xOff = s(f + XOff)
    val from = off(w)
    val until = off(w + 1)
    val cp = c + Header
    val a = IntSets.intersectInto(s, pOff, pOff + pLen, adj, from, until, s, cp)
    val cx = cp + a
    val b = IntSets.intersectInto(s, xOff, xOff + xLen, adj, from, until, s, cx)
    s(c + Parent) = f; s(c + PLen) = a; s(c + XOff) = cx; s(c + XLen) = b
    s(c + ExtOff) = cx + b + a
    fs.top = cx + b + a
  }

  /** The start of the call at frame `f`: count it and its visits, run the
    * dynamic reduction, and for the pivot recursions pick the pivot and
    * lay out the branch set. The removed vertices join `X`, except in the
    * pivot scan.
    */
  private def enter(f: Int, rcd: Boolean): Unit = {
    metrics.recursiveCalls += 1
    val s = fs.buf
    val pOff = f + Header
    val xOff = s(f + XOff)
    val extOff = s(f + ExtOff)
    var pLen = s(f + PLen)
    var xLen = s(f + XLen)
    visitAll(s, pOff, pLen, local.orig); visitAll(s, xOff, xLen, local.orig)
    var removed = 0
    var hoisted = 0
    if (cfg.dynamicReduction) {
      pLen = dyn.apply(adj, off, r, s, pOff, pLen, xOff, xLen, extOff, localSink, metrics)
      xLen = dyn.xLen; removed = dyn.removedLen; hoisted = dyn.hoisted
    }
    s(f + PLen) = pLen
    s(f + Hoisted) = hoisted
    s(f + Next) = 0
    s(f + ExtLen) = 0
    if (rcd) s(f + XLen) = IntSets.unionInPlace(s, xOff, xLen, s, extOff, removed)
    else if (pLen == 0) {
      if (xLen == 0 && removed == 0 && r.size >= 2) reportRPlus(s, 0, 0)
    } else {
      val pivot = choosePivot(s, pOff, pLen, xOff, xLen)
      s(f + XLen) = IntSets.unionInPlace(s, xOff, xLen, s, extOff, removed)
      if (pivot >= 0)
        s(f + ExtLen) = IntSets.diffInto(s, pOff, pOff + pLen, adj, off(pivot), off(pivot + 1), s, extOff)
    }
    fs.top = extOff + s(f + ExtLen)
  }

  // ---------------------------------------------------------------------
  // BKdegen / BKrevised: pivoted recursion (Alg. 2 lines 4-9), branching on
  // P \ N(pivot). `revised` scans X first, prunes the branch outright when
  // an X vertex dominates all of P (Naudé-style dominance), and prefers X
  // pivots on ties.
  // ---------------------------------------------------------------------

  /** The pivot over non-empty `P`, or -1 when the revised scan finds an `X`
    * vertex adjacent to all of `P`.
    */
  private def choosePivot(s: Array[Int], pOff: Int, pLen: Int, xOff: Int, xLen: Int): Int = {
    val revised = cfg.recursion == RecursionKind.Revised
    var pivot = -1
    var best = -1
    if (revised) {
      var i = xOff
      while (i < xOff + xLen) {
        val u = s(i)
        val sc = scoreAgainst(u, s, pOff, pLen)
        if (sc == pLen) return -1 // X vertex adjacent to all of P
        if (sc > best) { best = sc; pivot = u }
        i += 1
      }
    }
    var i = pOff
    while (i < pOff + pLen && best < pLen - 1) {
      val u = s(i)
      val sc = if (cfg.dynamicReduction) dyn.degreeInP(u) else scoreAgainst(u, s, pOff, pLen)
      if (sc > best) { best = sc; pivot = u }
      i += 1
    }
    if (!revised) {
      i = xOff
      while (i < xOff + xLen && best < pLen) {
        val u = s(i)
        val sc = scoreAgainst(u, s, pOff, pLen)
        if (sc > best) { best = sc; pivot = u }
        i += 1
      }
    }
    pivot
  }

  /** The next vertex of frame `f`'s branch set, or -1 when it is done. */
  private def nextPivot(f: Int): Int = {
    val s = fs.buf
    val k = s(f + Next)
    if (k == s(f + ExtLen)) -1
    else { s(f + Next) = k + 1; s(s(f + ExtOff) + k) }
  }

  // ---------------------------------------------------------------------
  // BKrcd (Alg. 3): top-down — peel the candidate with the fewest
  // neighbours in P (recursing into its neighbourhood) until P itself is a
  // clique, then report R ∪ P if it passes the maximality check.
  // ---------------------------------------------------------------------

  /** The next vertex frame `f` peels, or -1 once `P` is empty or a clique
    * (after the report that ends the call, if any).
    */
  private def nextRcd(f: Int): Int = {
    val s = fs.buf
    val pOff = f + Header
    val pLen = s(f + PLen)
    val xOff = s(f + XOff)
    val xLen = s(f + XLen)
    if (pLen == 0) {
      if (xLen == 0 && r.size >= 2) reportRPlus(s, 0, 0)
      return -1
    }
    var minD = Int.MaxValue
    var argMin = -1
    var i = pOff
    while (i < pOff + pLen) {
      val d = scoreAgainst(s(i), s, pOff, pLen)
      if (d < minD) { minD = d; argMin = s(i) }
      i += 1
    }
    if (minD < pLen - 1) return argMin
    // P is a clique; R ∪ P is the only candidate maximal clique here.
    i = xOff
    while (i < xOff + xLen) {
      if (scoreAgainst(s(i), s, pOff, pLen) == pLen) return -1
      i += 1
    }
    reportRPlus(s, pOff, pLen)
    -1
  }

  // ---------------------------------------------------------------------
  // BKfacen (Jin et al.): hybrid structure — a partial adjacency matrix
  // over the root's candidate universe P₀ = N⁺(v) (≤ λ vertices) plus
  // bitmask rows for every forbidden vertex, so intersections, pivot
  // scoring, and the dynamic reduction all become word-parallel. The masks
  // come from the root's local rows: P₀ is the local ids from nx + 1 on, so
  // a member's bit is its local id − nx − 1. Unlike the array recursions,
  // it recurses on the JVM stack and allocates its bitsets per call.
  // ---------------------------------------------------------------------

  /** What [[FacenRoot]]'s dynamic reduction leaves: the candidate bits, and
    * `X`, the removed vertices and the hoist count as in [[DynamicReduction]]
    * (`xs` and `removed` hold slot indices).
    */
  private final class BitsOutcome(val pb: Array[Long], val xs: Array[Int], val removed: Array[Int],
                                  val hoisted: Int)

  /** The root's `k = |P₀|` candidates and `nx = |X′|` forbidden vertices, in
    * the local ids [[RootGraph.build]] gives them.
    */
  private final class FacenRoot(k: Int, nx: Int) {
    private val w = Bits.words(math.max(1, k))
    private val nSlots = k + nx
    /** Slot → local id: P₀ members take slots `0 until k`, X′ the rest. */
    private val slotId = new Array[Int](nSlots)
    private val masks = new Array[Long](nSlots * w)

    locally {
      val base = local.nx + 1
      var i = 0
      while (i < nSlots) {
        val v = if (i < k) base + i else i - k
        slotId(i) = v
        var j = off(v)
        val end = off(v + 1)
        while (j < end) {
          if (adj(j) >= base) Bits.setBit(masks, i * w, adj(j) - base)
          j += 1
        }
        i += 1
      }
    }

    def run(): Unit = {
      val pBits = new Array[Long](w)
      var i = 0
      while (i < k) { Bits.setBit(pBits, 0, i); i += 1 }
      rec(pBits, Array.tabulate(nx)(j => k + j))
    }

    private def visitBits(pb: Array[Long]): Unit =
      Bits.forEachBit(pb, 0, w)(ui => metrics.visit(local.orig(slotId(ui))))

    /** In-P degrees of the current candidate bits; shared scratch, valid
      * between a call's degree scan and its descent into children (children
      * overwrite it, but it is never read after the ext loop starts).
      */
    private val duScratch = new Array[Int](math.max(1, k))

    private def computeDu(pb: Array[Long]): Unit =
      Bits.forEachBit(pb, 0, w)(u => duScratch(u) = Bits.andPopcount(masks, u * w, pb, 0, w))

    /** Bitset counterpart of [[DynamicReduction]] (same barren exit, same
      * three lemmas). Unless the barren exit
      * fires, it fills `duScratch` with in-P degrees for `pb0` and leaves it
      * holding valid degrees for the returned bitset, so pivot selection
      * reuses the scan instead of recomputing popcounts. `orX` (the mark
      * bits) is only built when a degree-0/1 vertex actually exists.
      */
    private def dynReduceBits(pb0: Array[Long], xs: Array[Int], pSize: Int): BitsOutcome = {
      var i = 0
      while (i < xs.length) {
        if (Bits.andPopcount(masks, xs(i) * w, pb0, 0, w) == pSize)
          return new BitsOutcome(new Array[Long](w), xs, EmptyInts, 0)
        i += 1
      }
      computeDu(pb0)
      var anyLow = false
      var anyFull = false
      Bits.forEachBit(pb0, 0, w) { u =>
        val d = duScratch(u)
        if (d <= 1) anyLow = true
        if (d == pSize - 1) anyFull = true
      }
      if (!anyLow && !anyFull)
        return new BitsOutcome(pb0, xs, EmptyInts, 0)

      val pb = pb0.clone()
      var anyRemoved = false
      if (anyLow) {
        val orX = new Array[Long](w)
        i = 0
        while (i < xs.length) { Bits.orInto(orX, masks, xs(i) * w, w); i += 1 }
        Bits.forEachBit(pb0, 0, w) { u =>
          if (Bits.testBit(pb, 0, u)) { // not yet removed as a pair partner
            val du = duScratch(u)
            if (du == 0) {
              if (!Bits.testBit(orX, 0, u)) {
                val len = r.copyInto(scratch)
                scratch(len) = slotId(u)
                localSink.report(scratch, len + 1)
                metrics.preReportedDynamic += 1
              }
              Bits.clearBit(pb, 0, u)
              anyRemoved = true
            } else if (du == 1) {
              val v = Bits.singleBitOfAnd(masks, u * w, pb0, 0, w)
              if (!Bits.testBit(orX, 0, u) || !Bits.testBit(orX, 0, v)) {
                val len = r.copyInto(scratch)
                scratch(len) = slotId(u); scratch(len + 1) = slotId(v)
                localSink.report(scratch, len + 2)
                metrics.preReportedDynamic += 1
                Bits.clearBit(pb, 0, u)
                anyRemoved = true
                if (duScratch(v) == 1) Bits.clearBit(pb, 0, v)
              }
            }
          }
        }
      }
      // Degree-(|P'|-1) hoisting. Survivors' degrees are patched, not
      // rescanned: a removed vertex had at most one P-neighbour. A hoist
      // shifts every survivor's degree by the same constant, patched below.
      val kNow = if (anyRemoved) Bits.popcount(pb, 0, w) else pSize
      var removed = EmptyInts
      if (anyRemoved) {
        removed = new Array[Int](pSize - kNow)
        var j = 0
        Bits.forEachBit(pb0, 0, w) { u =>
          if (!Bits.testBit(pb, 0, u)) {
            removed(j) = u; j += 1
            if (duScratch(u) == 1) {
              val v = Bits.singleBitOfAnd(masks, u * w, pb0, 0, w)
              if (Bits.testBit(pb, 0, v)) duScratch(v) -= 1
            }
          }
        }
      }
      var hoisted = 0
      var xsOut = xs
      if (kNow > 0) {
        val toHoist = new Array[Int](kNow)
        var hn = 0
        Bits.forEachBit(pb, 0, w) { u =>
          if (duScratch(u) == kNow - 1) { toHoist(hn) = u; hn += 1 }
        }
        if (hn > 0) {
          var j = 0
          while (j < hn) {
            val u = toHoist(j)
            r.push(slotId(u))
            Bits.clearBit(pb, 0, u)
            j += 1
          }
          hoisted = hn
          Bits.forEachBit(pb, 0, w)(u => duScratch(u) -= hn)
          val adjacentToHoisted: Int => Boolean = { s =>
            var ok = true
            var t = 0
            while (t < hn && ok) { ok = Bits.testBit(masks, s * w, toHoist(t)); t += 1 }
            ok
          }
          xsOut = xs.filter(adjacentToHoisted)
          removed = removed.filter(adjacentToHoisted)
        }
      }
      new BitsOutcome(pb, xsOut, removed, hoisted)
    }

    private def rec(pBits: Array[Long], xSlots: Array[Int]): Unit = {
      metrics.recursiveCalls += 1
      visitBits(pBits)
      var i = 0
      while (i < xSlots.length) { metrics.visit(local.orig(slotId(xSlots(i)))); i += 1 }

      var pb = pBits
      var xs = xSlots
      var removed = EmptyInts
      var hoisted = 0
      if (!Bits.isEmpty(pb, 0, w)) {
        if (cfg.dynamicReduction) {
          val out = dynReduceBits(pb, xs, Bits.popcount(pb, 0, w))
          pb = out.pb; xs = out.xs; removed = out.removed; hoisted = out.hoisted
        } else computeDu(pb)
      }
      if (Bits.isEmpty(pb, 0, w)) {
        if (xs.isEmpty && removed.isEmpty && r.size >= 2)
          reportRPlus(EmptyInts, 0, 0)
      } else {
        val pSize = Bits.popcount(pb, 0, w)
        var pivot = -1
        var best = -1
        // P-side pivot scores come straight from the degree scan.
        Bits.forEachBit(pb, 0, w) { u =>
          if (best < pSize - 1 && duScratch(u) > best) { best = duScratch(u); pivot = u }
        }
        i = 0
        while (i < xs.length && best < pSize) {
          val s = Bits.andPopcount(masks, xs(i) * w, pb, 0, w)
          if (s > best) { best = s; pivot = xs(i) }
          i += 1
        }
        val ext = new Array[Long](w)
        var t = 0
        while (t < w) { ext(t) = pb(t) & ~masks(pivot * w + t); t += 1 }
        val curP = pb.clone()
        var curX = if (removed.isEmpty) xs else xs ++ removed
        Bits.forEachBit(ext, 0, w) { wi =>
          val np = Bits.and(curP, 0, masks, wi * w, w)
          val nxB = Array.newBuilder[Int]
          var j = 0
          while (j < curX.length) {
            if (Bits.testBit(masks, curX(j) * w, wi)) nxB += curX(j)
            j += 1
          }
          r.push(slotId(wi))
          rec(np, nxB.result())
          r.pop()
          Bits.clearBit(curP, 0, wi)
          curX = curX :+ wi
        }
      }
      var h = 0
      while (h < hoisted) { r.pop(); h += 1 }
    }
  }
}
