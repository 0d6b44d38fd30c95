package repro.core

import java.lang.management.ManagementFactory
import org.scalatest.funsuite.AnyFunSuite
import TestGraphs._

/** The array recursions run on explicit frames: their depth costs no JVM
  * stack, and a search allocates nothing per call.
  */
class FrameSearchSpec extends AnyFunSuite {

  /** Run `body` on a fresh thread with a `stackBytes` stack; rethrows what
    * it threw.
    */
  private def onSmallStack[A](stackBytes: Long)(body: => A): A = {
    var result: Option[A] = None
    var failure: Throwable = null
    val t = new Thread(null, () => try result = Some(body) catch { case e: Throwable => failure = e },
      "small-stack", stackBytes)
    t.start()
    t.join()
    if (failure != null) throw failure
    result.get
  }

  /** On K_k BKdegen and BKrevised branch once per vertex, so a search that
    * took a JVM frame per branched vertex would need k of them; with one
    * frame per branch, as the recursive search had, BKdegen on K2000 threw
    * `StackOverflowError` on a 256 KiB stack. With dynamic reduction on,
    * the root hoists the whole clique instead.
    */
  test("K2000 on a 256 KiB thread stack: BKdegen, BKrevised and their RMCE configs report the one clique") {
    val k = 2000
    val g = complete(k)
    for (kind <- Seq(RecursionKind.Degen, RecursionKind.Revised);
         cfg <- Seq(RmceConfig.baseline(kind), RmceConfig.rmce(kind))) {
      val sink = new CollectingSink
      onSmallStack(256L * 1024)(Rmce.run(g, cfg, sink))
      assert(sink.cliques.toSeq == Seq((0 until k).toSet), cfg.label)
    }
  }

  /** After a warm-up pass, which grows the frame stack and the root rows
    * once, a second pass of the same `Engine` over every root allocates
    * less than twice the engine's fixed arrays plus its first frame stack.
    * For `n` vertices and `d` = max degree + 1 that bound is, in bytes,
    * `2 × (4·(4n + 13d) + d) + 4·(8 + 4d)`: Alg. 8's three records and the
    * root graph's label map (`4n` ints); the root graph's five arrays, the
    * dynamic reduction's six and the engine's two report buffers (`13d`
    * ints); the dynamic reduction's marks (`d` booleans); and the frame
    * stack's 8-int header plus `4d`. The recursive search, which took
    * fresh `P` and `X` arrays per call, allocated far above it here.
    */
  test("a warmed-up RMCEdegen pass allocates under twice its fixed arrays plus the frame stack") {
    val g0 = hubbedClique(core = 300, p = 0.15, k = 40, hubs = 4, seed = 5)
    val cfg = RmceConfig.rmce(RecursionKind.Degen)
    val prepared = Rmce.prepare(g0, cfg, new CountingSink, new Metrics(g0.n))
    val n = prepared.graph.n
    val d = prepared.graph.maxDegree + 1
    val bound = 2L * (4L * (4 * n + 13 * d) + d) + 4L * (Engine.Header + 4 * d)
    val metrics = new Metrics(g0.n)
    val engine = new Engine(prepared.graph, prepared.toOrig, cfg, new CountingSink, metrics)
    engine.runRoots(0 until n)
    assert(metrics.recursiveCalls > 1000, "the graph must make the search branch")
    val mx = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    val id = Thread.currentThread.getId
    val before = mx.getThreadAllocatedBytes(id)
    engine.runRoots(0 until n)
    val allocated = mx.getThreadAllocatedBytes(id) - before
    info(s"allocated $allocated bytes, bound $bound (n = $n, d = $d, ${metrics.recursiveCalls} calls in the warm-up)")
    assert(allocated < bound, s"a warmed-up pass allocated $allocated bytes; bound $bound")
  }
}
