package repro.core

/** Tiny growable int stack used for the partial clique `R` on the hot path
  * of every recursion (avoids boxing and per-call allocation).
  */
final class IntStack(initialCapacity: Int = 64) {
  private var arr = new Array[Int](math.max(4, initialCapacity))
  private var len = 0

  def size: Int = len
  def isEmpty: Boolean = len == 0

  def push(v: Int): Unit = {
    if (len == arr.length) arr = java.util.Arrays.copyOf(arr, arr.length * 2)
    arr(len) = v
    len += 1
  }

  def pop(): Int = {
    require(len > 0, "pop on empty IntStack")
    len -= 1
    arr(len)
  }

  def apply(i: Int): Int = {
    require(i >= 0 && i < len, s"index $i out of [0,$len)")
    arr(i)
  }

  def clear(): Unit = len = 0

  /** Copy contents into `dst[0,size)`; `dst` must be large enough. */
  def copyInto(dst: Array[Int]): Int = {
    System.arraycopy(arr, 0, dst, 0, len)
    len
  }
}
