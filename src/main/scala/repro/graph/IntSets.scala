package repro.graph

/** Set algebra over sorted, duplicate-free `Array[Int]` ranges.
  *
  * All MCE kernels in `repro.core` represent the candidate set `P`, the
  * forbidden set `X`, and adjacency lists as sorted int arrays; every
  * operation here is a linear merge (or a binary search), which is the
  * classic representation used by the C++ baselines the paper builds on.
  */
object IntSets {

  /** Binary search: does sorted range `a[from,until)` contain `x`? */
  def contains(a: Array[Int], from: Int, until: Int, x: Int): Boolean = {
    var lo = from
    var hi = until - 1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      val v = a(mid)
      if (v == x) return true
      else if (v < x) lo = mid + 1
      else hi = mid - 1
    }
    false
  }

  /** Merge-intersection of sorted ranges `a[af,au)` and `b[bf,bu)`. */
  def intersect(a: Array[Int], af: Int, au: Int,
                b: Array[Int], bf: Int, bu: Int): Array[Int] = {
    val out = new Array[Int](math.min(au - af, bu - bf))
    var i = af; var j = bf; var k = 0
    while (i < au && j < bu) {
      val x = a(i); val y = b(j)
      if (x == y) { out(k) = x; k += 1; i += 1; j += 1 }
      else if (x < y) i += 1
      else j += 1
    }
    if (k == out.length) out else java.util.Arrays.copyOf(out, k)
  }

  /** Size of the intersection of two sorted ranges (no allocation). */
  def intersectSize(a: Array[Int], af: Int, au: Int,
                    b: Array[Int], bf: Int, bu: Int): Int = {
    var i = af; var j = bf; var k = 0
    while (i < au && j < bu) {
      val x = a(i); val y = b(j)
      if (x == y) { k += 1; i += 1; j += 1 }
      else if (x < y) i += 1
      else j += 1
    }
    k
  }

  /** Is sorted range `a[af,au)`, minus element `skip`, a subset of sorted
    * range `b[bf,bu)`? Used by the Alg. 8 dominance checks, where the probed
    * vertex itself must be excluded from its own candidate set.
    */
  def subsetOfExcluding(a: Array[Int], af: Int, au: Int, skip: Int,
                        b: Array[Int], bf: Int, bu: Int): Boolean = {
    var i = af; var j = bf
    while (i < au) {
      val x = a(i)
      if (x == skip) { i += 1 }
      else {
        while (j < bu && b(j) < x) j += 1
        if (j >= bu || b(j) != x) return false
        i += 1; j += 1
      }
    }
    true
  }

  /** Remove one element from a sorted array (fresh array). */
  def remove(a: Array[Int], x: Int): Array[Int] = {
    val out = new Array[Int](math.max(0, a.length - 1))
    var i = 0; var k = 0
    while (i < a.length) {
      if (a(i) != x) { if (k < out.length) out(k) = a(i); k += 1 }
      i += 1
    }
    if (k == a.length) a // x was absent
    else out
  }

  /** Insert one element into a sorted array, keeping it sorted (fresh array).
    * `x` must not already be present.
    */
  def insert(a: Array[Int], x: Int): Array[Int] = {
    val out = new Array[Int](a.length + 1)
    var i = 0
    while (i < a.length && a(i) < x) { out(i) = a(i); i += 1 }
    out(i) = x
    while (i < a.length) { out(i + 1) = a(i); i += 1 }
    out
  }

  /** Difference of sorted `a` minus sorted range `b[bf,bu)` (fresh array). */
  def diffRange(a: Array[Int], b: Array[Int], bf: Int, bu: Int): Array[Int] = {
    val out = new Array[Int](a.length)
    var i = 0; var j = bf; var k = 0
    while (i < a.length) {
      val x = a(i)
      while (j < bu && b(j) < x) j += 1
      if (j >= bu || b(j) != x) { out(k) = x; k += 1 }
      i += 1
    }
    if (k == out.length) out else java.util.Arrays.copyOf(out, k)
  }

  /** Union of two sorted arrays (fresh array). */
  def union(a: Array[Int], b: Array[Int]): Array[Int] = {
    val out = new Array[Int](a.length + b.length)
    var i = 0; var j = 0; var k = 0
    while (i < a.length && j < b.length) {
      val x = a(i); val y = b(j)
      if (x == y) { out(k) = x; k += 1; i += 1; j += 1 }
      else if (x < y) { out(k) = x; k += 1; i += 1 }
      else { out(k) = y; k += 1; j += 1 }
    }
    while (i < a.length) { out(k) = a(i); k += 1; i += 1 }
    while (j < b.length) { out(k) = b(j); k += 1; j += 1 }
    if (k == out.length) out else java.util.Arrays.copyOf(out, k)
  }
}
