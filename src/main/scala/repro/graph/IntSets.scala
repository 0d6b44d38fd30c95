package repro.graph

/** Set algebra over sorted, duplicate-free `Array[Int]` ranges.
  *
  * All MCE kernels in `repro.core` represent the candidate set `P`, the
  * forbidden set `X`, and adjacency lists as sorted int arrays; every
  * operation here is a linear merge (or a binary search), which is the
  * classic representation used by the C++ baselines the paper builds on.
  * No operation allocates: a result goes into a buffer the caller names,
  * or replaces its input in place.
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

  /** Merge-intersection of sorted ranges `a[af,au)` and `b[bf,bu)`, written
    * to `out` from `o`; returns its length. It may run in place over `a`
    * (`out eq a`, `o <= af`): each write lands at or before the read.
    */
  def intersectInto(a: Array[Int], af: Int, au: Int,
                    b: Array[Int], bf: Int, bu: Int,
                    out: Array[Int], o: Int): Int = {
    var i = af; var j = bf; var k = o
    while (i < au && j < bu) {
      val x = a(i); val y = b(j)
      if (x == y) { out(k) = x; k += 1; i += 1; j += 1 }
      else if (x < y) i += 1
      else j += 1
    }
    k - o
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

  /** Difference of sorted range `a[af,au)` minus sorted range `b[bf,bu)`,
    * written to `out` from `o`; returns its length. Like [[intersectInto]],
    * it may run in place over `a`.
    */
  def diffInto(a: Array[Int], af: Int, au: Int,
               b: Array[Int], bf: Int, bu: Int,
               out: Array[Int], o: Int): Int = {
    var i = af; var j = bf; var k = o
    while (i < au) {
      val x = a(i)
      while (j < bu && b(j) < x) j += 1
      if (j >= bu || b(j) != x) { out(k) = x; k += 1 }
      i += 1
    }
    k - o
  }

  /** Remove `x` from the sorted slice `a[from, from+len)` in place, shifting
    * the larger elements down; returns the new length (`len` if `x` is
    * absent).
    */
  def removeInPlace(a: Array[Int], from: Int, len: Int, x: Int): Int = {
    val end = from + len
    var i = from
    while (i < end && a(i) < x) i += 1
    if (i == end || a(i) != x) len
    else {
      System.arraycopy(a, i + 1, a, i, end - i - 1)
      len - 1
    }
  }

  /** Insert `x` (absent) into the sorted slice `a[from, from+len)` in place,
    * shifting the larger elements up into `a(from+len)`; returns `len + 1`.
    */
  def insertInPlace(a: Array[Int], from: Int, len: Int, x: Int): Int = {
    val end = from + len
    var i = from
    while (i < end && a(i) < x) i += 1
    System.arraycopy(a, i, a, i + 1, end - i)
    a(i) = x
    len + 1
  }

  /** Union of the sorted slice `a[af, af+alen)` with the disjoint sorted
    * range `b[bf, bf+blen)`, written in place over `a[af, af+alen+blen)`
    * from the back, so no element of `a` is overwritten before it is read.
    * `b` must lie outside that span. Returns `alen + blen`.
    */
  def unionInPlace(a: Array[Int], af: Int, alen: Int, b: Array[Int], bf: Int, blen: Int): Int = {
    var i = af + alen - 1
    var j = bf + blen - 1
    var k = af + alen + blen - 1
    while (j >= bf) {
      if (i >= af && a(i) > b(j)) { a(k) = a(i); i -= 1 }
      else { a(k) = b(j); j -= 1 }
      k -= 1
    }
    alen + blen
  }
}
