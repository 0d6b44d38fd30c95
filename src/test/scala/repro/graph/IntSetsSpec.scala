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

  test("intersect agrees with Set intersection") {
    run(Prop.forAll(genSet, genSet) { (a, b) =>
      IntSets.intersect(a, 0, a.length, b, 0, b.length).toSeq ==
        (a.toSet intersect b.toSet).toSeq.sorted
    })
  }

  test("intersectSize agrees with intersect length") {
    run(Prop.forAll(genSet, genSet) { (a, b) =>
      IntSets.intersectSize(a, 0, a.length, b, 0, b.length) ==
        IntSets.intersect(a, 0, a.length, b, 0, b.length).length
    })
  }

  test("diffRange agrees with Set difference") {
    run(Prop.forAll(genSet, genSet) { (a, b) =>
      IntSets.diffRange(a, b, 0, b.length).toSeq == (a.toSet diff b.toSet).toSeq.sorted
    })
  }

  test("union agrees with Set union") {
    run(Prop.forAll(genSet, genSet) { (a, b) =>
      IntSets.union(a, b).toSeq == (a.toSet union b.toSet).toSeq.sorted
    })
  }

  test("remove drops exactly one present element") {
    val a = Array(1, 3, 5, 9)
    assert(IntSets.remove(a, 3).toSeq == Seq(1, 5, 9))
    assert(IntSets.remove(a, 4).toSeq == Seq(1, 3, 5, 9))
    assert(IntSets.remove(Array.empty[Int], 4).toSeq == Seq.empty)
  }

  test("insert keeps ordering") {
    run(Prop.forAll(genSet, Gen.choose(0, 60)) { (a, x) =>
      if (a.contains(x)) true
      else {
        val out = IntSets.insert(a, x)
        out.toSeq == (a.toSeq :+ x).sorted
      }
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
    assert(IntSets.intersect(a, 2, 5, b, 0, 2).toSeq == Seq(3, 4))
    assert(IntSets.intersectSize(a, 0, 3, b, 0, b.length) == 1)
  }
}
