package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.harness.Reports

/** Table 2 — graph statistics of the 18 stand-ins, printed next to the
  * paper's values. n, m and d_max are read off each stand-in's CSR, λ from
  * its core decomposition. The stand-ins are 10²–10³× smaller; what must match
  * is the *regime* (see DESIGN.md), which the assertions pin down.
  */
class Table2GraphStatsBench extends AnyFunSuite {

  test("Table 2: graph statistics (measured vs paper)") {
    val (text, rows) = Reports.table2()
    println("\n=== Table 2: Graph statistics ===")
    println(text)

    assert(rows.size == 18)
    val byAbbr = rows.map(r => r.abbr -> r).toMap
    // Road graphs: near-planar, tiny degrees, λ ≤ 3 (paper λ = 3).
    Seq("in", "rc").foreach { a =>
      assert(byAbbr(a).dmax <= 4 && byAbbr(a).lambda <= 3, s"$a out of road regime")
    }
    // Delaunay stand-in: 6-regular torus, λ in [3,6] (paper λ = 4).
    assert(byAbbr("sd").dmax == 6 && byAbbr("sd").lambda >= 3 && byAbbr("sd").lambda <= 6)
    // Dense social graphs have the largest λ of the suite (paper: co, fl).
    val lambdas = rows.map(r => r.abbr -> r.lambda).toMap
    assert(Seq("co", "fl").map(lambdas).min >= rows.map(_.lambda).sorted.takeRight(4).min,
      "co/fl must sit in the top-λ group")
    // Power-law graphs: d_max far above average degree.
    Seq("as", "cy", "ee", "wt", "sp").foreach { a =>
      val r = byAbbr(a)
      assert(r.dmax > 8 * (2.0 * r.m / r.n), s"$a lost its hubs")
    }
    // Sanity: every row's λ ≤ d_max and m consistent with handshake bound.
    rows.foreach { r =>
      assert(r.lambda <= r.dmax && r.m <= r.n.toLong * r.dmax / 2 + r.n)
    }
  }
}
