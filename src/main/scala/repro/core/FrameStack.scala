package repro.core

/** The search's working memory: one growable int array with a top mark.
  * A call takes its slices (its `P`, `X`, removed and branch sets) from
  * `top` up, moves `top` past them, and gives them back by setting `top`
  * to where it found it, so siblings reuse the same space, as [[IntStack]]
  * does for `R`. Slices are named by offset, not by reference: [[reserve]]
  * may replace `buf`, so re-read it after a call that reserves.
  */
private[core] final class FrameStack(initialCapacity: Int) {
  var buf: Array[Int] = new Array[Int](math.max(16, initialCapacity))
  var top: Int = 0

  /** Make room for `n` ints from `top` on. */
  def reserve(n: Int): Unit =
    if (top + n > buf.length) buf = java.util.Arrays.copyOf(buf, math.max(2 * buf.length, top + n))
}
