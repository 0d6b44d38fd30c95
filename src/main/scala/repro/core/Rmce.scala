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
    * subset stays sound).
    */
  def runRoots(prepared: Prepared, roots: Iterable[Int], cfg: RmceConfig,
               sink: CliqueSink, metrics: Metrics): Unit =
    new Engine(prepared.graph, prepared.toOrig, cfg, sink, metrics).runRoots(roots)
}

private object Engine {
  val EmptyInts: Array[Int] = Array.empty[Int]
}

/** One enumeration pass: holds reusable scratch state (never share across
  * threads).
  *
  * Each root's search runs on its [[RootGraph]]: `R`, `P`, `X` and every
  * row hold that root's local ids, and reports and visits map them back
  * through `local.orig`. The maximality check reduction runs before the
  * build, on labels, since its `ignoreId` spans roots.
  *
  * Every recursion keeps the BK invariant "every vertex adjacent to all of
  * `R` is in `P ∪ X`": vertices the dynamic reduction drops from `P`
  * ([[DynOutcome.removed]]) join `X` for the branches and the base case,
  * but are not scored as pivots.
  */
private final class Engine(
    g: CsrGraph,
    toOrig: Array[Int],
    cfg: RmceConfig,
    sink: CliqueSink,
    metrics: Metrics) {

  private val local = new RootGraph(g, toOrig)
  private val dyn = new DynamicReduction(local.maxSize)
  private val fsr = new ForbiddenSetReduction(g.n)
  private val r = new IntStack()
  private val reportBuf = new Array[Int](local.maxSize)
  /** The current root's rows ([[RootGraph.adj]], [[RootGraph.off]]). */
  private var adj: Array[Int] = Engine.EmptyInts
  private var off: Array[Int] = Engine.EmptyInts

  /** Reports a clique given in local ids, as original ids. */
  private val localSink: CliqueSink = (ids, len) => {
    var i = 0
    while (i < len) { reportBuf(i) = local.orig(ids(i)); i += 1 }
    sink.report(reportBuf, len)
  }

  /** Report `R ∪ extra[0,extraLen)`. */
  private val scratch = new Array[Int](local.maxSize)
  private def reportRPlus(extra: Array[Int], extraLen: Int): Unit = {
    val rl = r.copyInto(scratch)
    System.arraycopy(extra, 0, scratch, rl, extraLen)
    localSink.report(scratch, rl + extraLen)
  }

  /** Count a visit to each vertex of `a`, mapped to original ids by `ids`. */
  private def visitAll(a: Array[Int], ids: Array[Int]): Unit = {
    var i = 0
    while (i < a.length) { metrics.visit(ids(a(i))); i += 1 }
  }

  def runRoots(roots: Iterable[Int]): Unit = {
    roots.foreach { i =>
      val p = g.laterNeighbors(i)
      var x = g.earlierNeighbors(i)
      metrics.rootSubproblems += 1
      metrics.forbiddenXTotal += x.length
      if (cfg.maximalityReduction) {
        val x1 = fsr.reduceAndUpdate(g, i, p, x)
        if (x1.length < x.length) metrics.forbiddenReducedRoots += 1
        x = x1
      }
      metrics.forbiddenXKept += x.length
      if (endsAtOnce(p, x)) {
        metrics.recursiveCalls += 1
        visitAll(p, toOrig); visitAll(x, toOrig)
      } else {
        local.build(i, x, p)
        adj = local.adj
        off = local.off
        r.clear()
        r.push(local.nx)
        cfg.recursion match {
          case RecursionKind.Degen   => recursePivot(p, x, revised = false)
          case RecursionKind.Revised => recursePivot(p, x, revised = true)
          case RecursionKind.Rcd     => recurseRcd(p, x)
          case RecursionKind.Facen   => new FacenRoot(p, x).run()
        }
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
  private def endsAtOnce(p: Array[Int], x: Array[Int]): Boolean =
    p.isEmpty || ((cfg.dynamicReduction || cfg.recursion != RecursionKind.Rcd) &&
      DynamicReduction.covers(g.adj, g.offsets, p, x))

  /** Dynamic reduction hook shared by the array-based recursions. */
  private def dynReduce(p: Array[Int], x: Array[Int]): DynOutcome =
    if (cfg.dynamicReduction) dyn.apply(adj, off, r, p, x, localSink, metrics)
    else new DynOutcome(p, x, Engine.EmptyInts, 0)

  /** `x` plus the vertices the dynamic reduction removed from `P`. */
  private def withRemoved(x: Array[Int], out: DynOutcome): Array[Int] =
    if (out.removed.isEmpty) x
    else if (x.isEmpty) out.removed
    else IntSets.union(x, out.removed)

  private def scoreAgainst(u: Int, p: Array[Int]): Int =
    IntSets.intersectSize(adj, off(u), off(u + 1), p, 0, p.length)

  // ---------------------------------------------------------------------
  // BKdegen / BKrevised: pivoted recursion (Alg. 2 lines 4-9). `revised`
  // scans X first, prunes the branch outright when an X vertex dominates
  // all of P (Naudé-style dominance), and prefers X pivots on ties.
  // ---------------------------------------------------------------------
  private def recursePivot(p0: Array[Int], x0: Array[Int], revised: Boolean): Unit = {
    metrics.recursiveCalls += 1
    visitAll(p0, local.orig); visitAll(x0, local.orig)
    val out = dynReduce(p0, x0)
    val p = out.p
    val x = out.x
    if (p.isEmpty) {
      if (x.isEmpty && out.removed.isEmpty && r.size >= 2)
        reportRPlus(Engine.EmptyInts, 0)
    } else {
      var pivot = -1
      var best = -1
      var barren = false
      if (revised) {
        var i = 0
        while (i < x.length && !barren) {
          val s = scoreAgainst(x(i), p)
          if (s == p.length) barren = true // X vertex adjacent to all of P
          else if (s > best) { best = s; pivot = x(i) }
          i += 1
        }
      }
      if (!barren) {
        var i = 0
        while (i < p.length && best < p.length - 1) {
          val s = if (cfg.dynamicReduction) dyn.degreeInP(p(i)) else scoreAgainst(p(i), p)
          if (s > best) { best = s; pivot = p(i) }
          i += 1
        }
        if (!revised) {
          i = 0
          while (i < x.length && best < p.length) {
            val s = scoreAgainst(x(i), p)
            if (s > best) { best = s; pivot = x(i) }
            i += 1
          }
        }
        val ext = IntSets.diffRange(p, adj, off(pivot), off(pivot + 1))
        var curP = p
        var curX = withRemoved(x, out)
        var k = 0
        while (k < ext.length) {
          val w = ext(k)
          val np = IntSets.intersect(curP, 0, curP.length, adj, off(w), off(w + 1))
          val nx = IntSets.intersect(curX, 0, curX.length, adj, off(w), off(w + 1))
          r.push(w)
          recursePivot(np, nx, revised)
          r.pop()
          curP = IntSets.remove(curP, w)
          curX = IntSets.insert(curX, w)
          k += 1
        }
      }
    }
    var h = 0
    while (h < out.hoisted) { r.pop(); h += 1 }
  }

  // ---------------------------------------------------------------------
  // BKrcd (Alg. 3): top-down — peel the candidate with the fewest
  // neighbours in P (recursing into its neighbourhood) until P itself is a
  // clique, then report R ∪ P if it passes the maximality check.
  // ---------------------------------------------------------------------
  private def recurseRcd(p0: Array[Int], x0: Array[Int]): Unit = {
    metrics.recursiveCalls += 1
    visitAll(p0, local.orig); visitAll(x0, local.orig)
    val out = dynReduce(p0, x0)
    var p = out.p
    var x = withRemoved(out.x, out)
    var done = false
    while (!done) {
      if (p.isEmpty) {
        if (x.isEmpty && r.size >= 2)
          reportRPlus(Engine.EmptyInts, 0)
        done = true
      } else {
        var minD = Int.MaxValue
        var argMin = -1
        var i = 0
        while (i < p.length) {
          val d = scoreAgainst(p(i), p)
          if (d < minD) { minD = d; argMin = p(i) }
          i += 1
        }
        if (minD == p.length - 1) {
          // P is a clique; R ∪ P is the only candidate maximal clique here.
          var maximal = true
          i = 0
          while (i < x.length && maximal) {
            if (scoreAgainst(x(i), p) == p.length) maximal = false
            i += 1
          }
          if (maximal) reportRPlus(p, p.length)
          done = true
        } else {
          val v = argMin
          val np = IntSets.intersect(p, 0, p.length, adj, off(v), off(v + 1))
          val nx = IntSets.intersect(x, 0, x.length, adj, off(v), off(v + 1))
          r.push(v)
          recurseRcd(np, nx)
          r.pop()
          p = IntSets.remove(p, v)
          x = IntSets.insert(x, v)
        }
      }
    }
    var h = 0
    while (h < out.hoisted) { r.pop(); h += 1 }
  }

  // ---------------------------------------------------------------------
  // BKfacen (Jin et al.): hybrid structure — a partial adjacency matrix
  // over the root's candidate universe P₀ = N⁺(v) (≤ λ vertices) plus
  // bitmask rows for every forbidden vertex, so intersections, pivot
  // scoring, and the dynamic reduction all become word-parallel. The masks
  // come from the root's local rows: P₀ is the local ids from nx + 1 on, so
  // a member's bit is its local id − nx − 1.
  // ---------------------------------------------------------------------
  private final class FacenRoot(p0: Array[Int], x0: Array[Int]) {
    private val k = p0.length
    private val w = Bits.words(math.max(1, k))
    private val nSlots = k + x0.length
    /** Slot → local id: P₀ members take slots `0 until k`, X′ the rest. */
    private val slotId = new Array[Int](nSlots)
    private val masks = new Array[Long](nSlots * w)

    locally {
      val base = local.nx + 1
      var i = 0
      while (i < nSlots) {
        val v = if (i < k) p0(i) else x0(i - k)
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
      rec(pBits, Array.tabulate(x0.length)(j => k + j))
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
      * three lemmas). Returns the reduced candidate bits and an outcome
      * whose `x` and `removed` are slot indices. Unless the barren exit
      * fires, it fills `duScratch` with in-P degrees for `pb0` and leaves it
      * holding valid degrees for the returned bitset, so pivot selection
      * reuses the scan instead of recomputing popcounts. `orX` (the mark
      * bits) is only built when a degree-0/1 vertex actually exists.
      */
    private def dynReduceBits(pb0: Array[Long], xs: Array[Int], pSize: Int): (Array[Long], DynOutcome) = {
      var i = 0
      while (i < xs.length) {
        if (Bits.andPopcount(masks, xs(i) * w, pb0, 0, w) == pSize)
          return (new Array[Long](w), new DynOutcome(Engine.EmptyInts, xs, Engine.EmptyInts, 0))
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
        return (pb0, new DynOutcome(Engine.EmptyInts, xs, Engine.EmptyInts, 0))

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
      var removed = Engine.EmptyInts
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
      (pb, new DynOutcome(Engine.EmptyInts, xsOut, removed, hoisted))
    }

    private def rec(pBits: Array[Long], xSlots: Array[Int]): Unit = {
      metrics.recursiveCalls += 1
      visitBits(pBits)
      var i = 0
      while (i < xSlots.length) { metrics.visit(local.orig(slotId(xSlots(i)))); i += 1 }

      var pb = pBits
      var xs = xSlots
      var removed = Engine.EmptyInts
      var hoisted = 0
      if (!Bits.isEmpty(pb, 0, w)) {
        if (cfg.dynamicReduction) {
          val (pb1, out) = dynReduceBits(pb, xs, Bits.popcount(pb, 0, w))
          pb = pb1; xs = out.x; removed = out.removed; hoisted = out.hoisted
        } else computeDu(pb)
      }
      if (Bits.isEmpty(pb, 0, w)) {
        if (xs.isEmpty && removed.isEmpty && r.size >= 2)
          reportRPlus(Engine.EmptyInts, 0)
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
