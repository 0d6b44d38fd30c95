package mcebench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import scala.collection.mutable

/** Spans around the benchmark's calls into the program's layers. Spans of
  * one op share its id; all stay in memory until [[writeSpans]].
  */
final class Tracer {
  import Tracer.Span

  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val spans = mutable.ArrayBuffer.empty[Span]
  private val open = mutable.Stack.empty[Int]
  private var ops = 0

  /** Per layer, one value per traced op: `<span>_ms` normalised with the
    * op's host-speed factor, `<span>_alloc_mb` for driver-thread calls, and
    * whatever else is given to [[record]].
    */
  val layerValues: mutable.LinkedHashMap[String, mutable.ArrayBuffer[Double]] = mutable.LinkedHashMap.empty

  def nextOp(): Int = { ops += 1; ops }

  def span[T](op: Int, name: String)(body: => T): T = {
    val id = spans.length
    val parent = open.headOption.getOrElse(-1)
    spans += Span(op, id, parent, name, 0L, 0L, 0L)
    open.push(id)
    val tid = Thread.currentThread().getId
    val a0 = threads.getThreadAllocatedBytes(tid)
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      spans(id) = spans(id).copy(startNs = t0, endNs = t1,
        allocBytes = threads.getThreadAllocatedBytes(tid) - a0)
      open.pop()
    }
  }

  /** Turn the spans of `op` into layer values; `scale` converts wall time
    * to time at reference host speed.
    */
  def finish(op: Int, scale: Double): Unit =
    spans.iterator.filter(_.op == op).foreach { s =>
      record(s.name + "_ms", (s.endNs - s.startNs) / 1e6 * scale)
      record(s.name + "_alloc_mb", s.allocBytes / 1048576.0)
    }

  /** One value of layer metric `k` for the current traced op. */
  def record(k: String, v: Double): Unit =
    layerValues.getOrElseUpdate(k, mutable.ArrayBuffer.empty) += v

  def writeSpans(path: String): Unit = {
    val lines = spans.map(s => Json(mutable.LinkedHashMap[String, Any](
      "op" -> s.op, "id" -> s.id, "parent" -> s.parent, "name" -> s.name,
      "start_ns" -> s.startNs, "end_ns" -> s.endNs, "alloc_bytes" -> s.allocBytes)))
    val p = Paths.get(path)
    Files.createDirectories(p.getParent)
    Files.write(p, lines.mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
  }
}

object Tracer {
  final case class Span(op: Int, id: Int, parent: Int, name: String,
                        startNs: Long, endNs: Long, allocBytes: Long)
}

/** Minimal JSON writer for the result line and span records. */
object Json {
  def apply(v: Any): String = v match {
    case null                => "null"
    case s: String           => "\"" + s.flatMap {
        case '"'  => "\\\""
        case '\\' => "\\\\"
        case c if c < ' ' => f"\\u${c.toInt}%04x"
        case c    => c.toString
      } + "\""
    case d: Double           => if (d.isNaN || d.isInfinite) "null" else d.toString
    case b: Boolean          => b.toString
    case n: Int              => n.toString
    case n: Long             => n.toString
    case m: collection.Map[_, _] =>
      m.map { case (k, x) => apply(k.toString) + ":" + apply(x) }.mkString("{", ",", "}")
    case xs: Iterable[_]     => xs.map(apply).mkString("[", ",", "]")
    case other               => apply(other.toString)
  }
}
