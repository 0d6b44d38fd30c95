package repro.gen

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.gen.GraphGen.GeneratedGraph

/** Stand-ins for the paper's 18 evaluation graphs (Table 2), scaled to run
  * on one machine in seconds. Each spec records the paper's reported
  * statistics (for side-by-side reporting in EXPERIMENTS.md) and a
  * deterministic generator tuned to the original's structural regime:
  * power-law social/web graphs with more or less fringe, clique-union
  * collaboration graphs, triangle-free grids (roads), and a 6-regular
  * triangular torus (Delaunay). See DESIGN.md "Dataset substitution".
  */
object Datasets {

  final case class DatasetSpec(
      abbr: String,
      name: String,
      paperVertices: Long,
      paperEdges: Long,
      paperDmax: Int,
      paperLambda: Int,
      gen: () => GeneratedGraph) {
    /** Generated, and built as a CSR, once per spec; every reader shares them. */
    lazy val graph: GeneratedGraph = gen()
    lazy val csr: repro.graph.CsrGraph = graph.toCsr
  }

  private def pl(n: Int, m: Int, closure: Double, p1: Int, p2: Int, seed: Long,
                 dup: Double = 0.0)(): GeneratedGraph = {
    val core = GraphGen.powerLawCluster(n, m, closure, seed, dup)
    if (p1 == 0 && p2 == 0) core else GraphGen.withFringe(core, p1, p2, seed + 1)
  }

  private def cu(n: Int, cliques: Int, lo: Int, hi: Int, hot: Double,
                 p1: Int, p2: Int, seed: Long)(): GeneratedGraph = {
    val core = GraphGen.cliqueUnion(n, cliques, lo, hi, hot, seed)
    if (p1 == 0 && p2 == 0) core else GraphGen.withFringe(core, p1, p2, seed + 1)
  }

  /** The 18 graphs, in the paper's Table 2 order. */
  val all: Seq[DatasetSpec] = Seq(
    DatasetSpec("as", "as-skitter", 1696415L, 11095298L, 35455, 111,
      pl(6000, 8, 0.60, 2500, 1500, seed = 101)),
    DatasetSpec("ca", "ca-CondMat", 23133L, 93439L, 279, 25,
      cu(3000, 1600, 3, 9, 0.30, 800, 400, seed = 102)),
    DatasetSpec("cp", "cit-Patents", 3774768L, 16518947L, 793, 64,
      pl(9000, 4, 0.35, 3500, 2000, seed = 103)),
    DatasetSpec("cd", "com-dblp", 317080L, 1049866L, 343, 113,
      cu(5000, 2600, 3, 10, 0.25, 1400, 700, seed = 104)),
    DatasetSpec("co", "com-orkut", 3072441L, 117185083L, 33313, 253,
      pl(4000, 24, 0.50, 0, 0, seed = 105)),
    DatasetSpec("cy", "com-youtube", 1134890L, 2987624L, 28754, 51,
      pl(8000, 3, 0.35, 4000, 1600, seed = 106)),
    DatasetSpec("ee", "email-EuAll", 265009L, 364481L, 7636, 37,
      pl(6000, 3, 0.30, 4000, 1400, seed = 107)),
    DatasetSpec("fl", "flickr", 105938L, 2316948L, 5425, 573,
      pl(2500, 32, 0.70, 0, 0, seed = 108)),
    DatasetSpec("in", "inf-road-usa", 23947346L, 28854311L, 9, 3,
      () => GraphGen.grid2d(110, 110)),
    DatasetSpec("lt", "large_twitch", 168114L, 6797557L, 35279, 149,
      pl(3500, 18, 0.45, 1000, 500, seed = 110)),
    DatasetSpec("lg", "loc-gowalla", 196591L, 950327L, 14730, 51,
      pl(5500, 6, 0.45, 2400, 1200, seed = 111)),
    DatasetSpec("rc", "roadNet-CA", 1965206L, 2766607L, 12, 3,
      () => GraphGen.grid2d(85, 95)),
    DatasetSpec("sd", "sc-delaunay_n23", 8388608L, 25165784L, 28, 4,
      () => GraphGen.triangularTorus(64, 66)),
    DatasetSpec("sp", "soc-pokec", 1632803L, 22301964L, 14854, 47,
      pl(7000, 9, 0.35, 2600, 1200, seed = 113)),
    DatasetSpec("st", "soc-twitter-higgs", 456631L, 12508440L, 51386, 125,
      pl(4500, 14, 0.50, 1500, 700, seed = 114)),
    DatasetSpec("wg", "web-Google", 875713L, 4322051L, 6332, 44,
      pl(8000, 5, 0.55, 3400, 1600, seed = 115, dup = 0.45)),
    DatasetSpec("ws", "web-Stanford", 281903L, 1992636L, 38625, 71,
      pl(5500, 6, 0.65, 2400, 1200, seed = 116, dup = 0.45)),
    DatasetSpec("wt", "wiki-Talk", 2394385L, 4659565L, 100029, 131,
      pl(7500, 3, 0.30, 4400, 1800, seed = 117)),
  )

  val byAbbr: Map[String, DatasetSpec] = all.map(d => d.abbr -> d).toMap

  /** Graphs the paper uses in the Figure 11 vertex-visit study. */
  val fig11Abbrs: Seq[String] = Seq("wg", "cp", "sp", "cd")

  /** Edge list as a canonical DataFrame `(src, dst)` with `src < dst`. */
  def edgesDF(spark: SparkSession, abbr: String): DataFrame = {
    val g = byAbbr(abbr).graph
    import spark.implicits._
    spark.createDataset(g.edges.toSeq.map { case (a, b) => (a.toLong, b.toLong) })
      .toDF("src", "dst")
  }
}
