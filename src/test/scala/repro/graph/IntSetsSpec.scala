package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop, Test => ScTest}

class IntSetsSpec extends AnyFunSuite {

  private def sorted(g: Gen[List[Int]]): Gen[Array[Int]] =
    g.map(_.distinct.sorted.toArray)

  private val genSet: Gen[Array[Int]] =
    sorted(Gen.listOf(Gen.choose(0, 60)))

  private def run(p: Prop): Unit = {
    val res = ScTest.check(ScTest.Parameters.default.withMinSuccessfulTests(100), p)
    assert(res.passed, res.status.toString)
  }

  test("contains agrees with linear scan") {
    run(Prop.forAll(genSet, Gen.choose(0, 60)) { (a, x) =>
      IntSets.contains(a, 0, a.length, x) == a.contains(x)
    })
  }

  /** Runs an into-buffer operation at offset 3 of a fresh buffer and
    * returns what it wrote.
    */
  private def into(op: (Array[Int], Int) => Int): Seq[Int] = {
    val out = Array.fill(130)(-1)
    val len = op(out, 3)
    out.slice(3, 3 + len).toSeq
  }

  /** Runs an operation in place over a copy of `a` placed at offset 2,
    * with `extra` spare cells behind it; returns the resulting slice.
    */
  private def inPlace(a: Array[Int], extra: Int)(op: (Array[Int], Int) => Int): Seq[Int] = {
    val buf = Array.fill(2 + a.length + extra)(-1)
    a.copyToArray(buf, 2)
    val len = op(buf, 2)
    buf.slice(2, 2 + len).toSeq
  }

  test("intersect agrees with Set intersection") {
    run(Prop.forAll(genSet, genSet) { (a, b) =>
      val want = (a.toSet intersect b.toSet).toSeq.sorted
      into(IntSets.intersectInto(a, 0, a.length, b, 0, b.length, _, _)) == want &&
        inPlace(a, 0)((buf, o) => IntSets.intersectInto(buf, o, o + a.length, b, 0, b.length, buf, o)) == want
    })
  }

  test("intersectSize agrees with intersect length") {
    run(Prop.forAll(genSet, genSet) { (a, b) =>
      IntSets.intersectSize(a, 0, a.length, b, 0, b.length) ==
        into(IntSets.intersectInto(a, 0, a.length, b, 0, b.length, _, _)).length
    })
  }

  test("diffInto agrees with Set difference") {
    run(Prop.forAll(genSet, genSet) { (a, b) =>
      val want = (a.toSet diff b.toSet).toSeq.sorted
      into(IntSets.diffInto(a, 0, a.length, b, 0, b.length, _, _)) == want &&
        inPlace(a, 0)((buf, o) => IntSets.diffInto(buf, o, o + a.length, b, 0, b.length, buf, o)) == want
    })
  }

  test("union agrees with Set union") {
    run(Prop.forAll(genSet, genSet) { (a, b0) =>
      val b = b0.filterNot(a.contains) // unionInPlace takes disjoint sets
      inPlace(a, b.length)((buf, o) => IntSets.unionInPlace(buf, o, a.length, b, 0, b.length)) ==
        (a.toSet union b.toSet).toSeq.sorted
    })
  }

  test("remove drops exactly one present element") {
    val a = Array(1, 3, 5, 9)
    assert(inPlace(a, 0)(IntSets.removeInPlace(_, _, a.length, 3)) == Seq(1, 5, 9))
    assert(inPlace(a, 0)(IntSets.removeInPlace(_, _, a.length, 4)) == Seq(1, 3, 5, 9))
    assert(inPlace(a, 0)(IntSets.removeInPlace(_, _, a.length, 9)) == Seq(1, 3, 5))
    assert(inPlace(Array.empty[Int], 0)(IntSets.removeInPlace(_, _, 0, 4)) == Seq.empty)
  }

  test("insert keeps ordering") {
    run(Prop.forAll(genSet, Gen.choose(0, 60)) { (a, x) =>
      a.contains(x) ||
        inPlace(a, 1)(IntSets.insertInPlace(_, _, a.length, x)) == (a.toSeq :+ x).sorted
    })
  }

  test("subsetOfExcluding: subset semantics with an excluded element") {
    run(Prop.forAll(genSet, genSet, Gen.choose(0, 60)) { (a, b, skip) =>
      IntSets.subsetOfExcluding(a, 0, a.length, skip, b, 0, b.length) ==
        (a.toSet - skip).subsetOf(b.toSet)
    })
  }

  test("subsetOfExcluding on ranges respects bounds") {
    val a = Array(2, 4, 6)
    val b = Array(0, 2, 4, 6, 8)
    assert(IntSets.subsetOfExcluding(a, 0, a.length, -1, b, 1, 4))
    assert(!IntSets.subsetOfExcluding(a, 0, a.length, -1, b, 2, 4))
    assert(IntSets.subsetOfExcluding(a, 0, a.length, 6, b, 1, 3))
  }

  test("intersect with ranges honours offsets") {
    val a = Array(1, 2, 3, 4, 5)
    val b = Array(3, 4, 5, 6)
    assert(into(IntSets.intersectInto(a, 2, 5, b, 0, 2, _, _)) == Seq(3, 4))
    assert(IntSets.intersectSize(a, 0, 3, b, 0, b.length) == 1)
  }
}
