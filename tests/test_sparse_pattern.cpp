#include "sparse/pattern.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <utility>
#include <vector>

#include "common/expect.h"
#include "common/rng.h"
#include "sparse/generators.h"
#include "sparse/matrix_market.h"

namespace loadex::sparse {
namespace {

TEST(Pattern, FromEdgesSymmetrizesAndDedups) {
  const auto p = Pattern::fromEdges(4, {{0, 1}, {1, 0}, {0, 1}, {2, 3}, {1, 1}});
  EXPECT_EQ(p.n(), 4);
  EXPECT_EQ(p.adjCount(), 4);  // (0,1),(1,0),(2,3),(3,2); diagonal dropped
  EXPECT_TRUE(p.hasEdge(0, 1));
  EXPECT_TRUE(p.hasEdge(1, 0));
  EXPECT_TRUE(p.hasEdge(3, 2));
  EXPECT_FALSE(p.hasEdge(0, 2));
  EXPECT_FALSE(p.hasEdge(1, 1));
}

TEST(Pattern, RowsAreSorted) {
  const auto p = Pattern::fromEdges(5, {{4, 0}, {2, 0}, {0, 1}, {3, 0}});
  const auto r0 = p.row(0);
  EXPECT_TRUE(std::is_sorted(r0.begin(), r0.end()));
  EXPECT_EQ(p.degree(0), 4);
}

TEST(Pattern, EdgeEndpointValidation) {
  EXPECT_THROW(Pattern::fromEdges(3, {{0, 3}}), ContractViolation);
  EXPECT_THROW(Pattern::fromEdges(3, {{-1, 0}}), ContractViolation);
}

TEST(Pattern, PermutedPreservesStructure) {
  const auto p = Pattern::fromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  const std::vector<int> perm{3, 2, 1, 0};  // reverse
  const auto q = p.permuted(perm);
  EXPECT_EQ(q.adjCount(), p.adjCount());
  // old edge (0,1) -> new vertices (3,2)
  EXPECT_TRUE(q.hasEdge(3, 2));
  EXPECT_TRUE(q.hasEdge(1, 0));  // old (2,3)
  EXPECT_FALSE(q.hasEdge(0, 3));
}

TEST(Pattern, PermutedRejectsBadPerm) {
  const auto p = Pattern::fromEdges(3, {{0, 1}});
  EXPECT_THROW(p.permuted({0, 0, 1}), ContractViolation);
  EXPECT_THROW(p.permuted({0, 1}), ContractViolation);
}

TEST(Pattern, ConnectedComponents) {
  const auto p = Pattern::fromEdges(6, {{0, 1}, {1, 2}, {4, 5}});
  std::vector<int> labels;
  EXPECT_EQ(p.connectedComponents(&labels), 3);  // {0,1,2}, {3}, {4,5}
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_NE(labels[0], labels[3]);
  EXPECT_EQ(labels[4], labels[5]);
}

// ---- oracle: the sort-of-pairs CSR construction ----------------------------
//
// The original fromEdges: symmetrize into (row, col) pairs, sort and unique
// them, then read the CSR off the sorted list. Kept here as the reference
// the counting construction (and permuted / induced, which bypass it) must
// reproduce exactly, ptr() and ind() alike.

struct Csr {
  std::vector<std::int64_t> ptr;
  std::vector<int> ind;
};

Csr referenceFromEdges(int n, const std::vector<std::pair<int, int>>& edges) {
  std::vector<std::pair<int, int>> sym;
  for (const auto& [i, j] : edges) {
    if (i == j) continue;
    sym.emplace_back(i, j);
    sym.emplace_back(j, i);
  }
  std::sort(sym.begin(), sym.end());
  sym.erase(std::unique(sym.begin(), sym.end()), sym.end());
  Csr c;
  c.ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [i, _] : sym) ++c.ptr[static_cast<std::size_t>(i) + 1];
  for (int i = 0; i < n; ++i)
    c.ptr[static_cast<std::size_t>(i) + 1] +=
        c.ptr[static_cast<std::size_t>(i)];
  for (const auto& [_, j] : sym) c.ind.push_back(j);
  return c;
}

/// Every undirected edge of `p` once, as (smaller, larger).
std::vector<std::pair<int, int>> edgesOf(const Pattern& p) {
  std::vector<std::pair<int, int>> e;
  for (int i = 0; i < p.n(); ++i)
    for (const int j : p.row(i))
      if (j > i) e.emplace_back(i, j);
  return e;
}

/// Uniform vertex in [0, n); n > 0.
int pick(Rng& rng, int n) {
  return static_cast<int>(rng.uniformInt(static_cast<std::uint64_t>(n)));
}

/// Random edge list on n vertices with duplicates, both orientations of
/// some edges, self-loops and (for sparse draws) isolated vertices.
std::vector<std::pair<int, int>> randomEdges(int n, Rng& rng) {
  std::vector<std::pair<int, int>> e;
  if (n == 0) return e;
  const int count = pick(rng, 3 * n + 1);
  for (int k = 0; k < count; ++k) {
    const int i = pick(rng, n);
    const int j = rng.bernoulli(0.1) ? i : pick(rng, n);
    e.emplace_back(i, j);
    if (rng.bernoulli(0.2)) e.emplace_back(j, i);
    if (rng.bernoulli(0.1)) e.emplace_back(i, j);
  }
  // A dense row, like GUPTA3's, now and then.
  if (rng.bernoulli(0.3)) {
    const int hub = pick(rng, n);
    for (int v = 0; v < n; ++v)
      if (rng.bernoulli(0.7)) e.emplace_back(v, hub);
  }
  return e;
}

std::vector<int> randomPermutation(int n, Rng& rng) {
  std::vector<int> p = identityPermutation(n);
  rng.shuffle(p);
  return p;
}

TEST(PatternOracle, FromEdgesMatchesSortOfPairs) {
  Rng rng(101);
  for (int trial = 0; trial < 300; ++trial) {
    const int n = trial == 0 ? 0 : pick(rng, 80);
    const auto edges = randomEdges(n, rng);
    const Csr want = referenceFromEdges(n, edges);
    const Pattern got = Pattern::fromEdges(n, edges);
    ASSERT_EQ(got.n(), n) << "trial " << trial;
    ASSERT_EQ(got.ptr(), want.ptr) << "trial " << trial;
    ASSERT_EQ(got.ind(), want.ind) << "trial " << trial;
  }
}

TEST(PatternOracle, FromEdgesRejectsOutOfRangeEndpoints) {
  Rng rng(102);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 1 + pick(rng, 40);
    auto edges = randomEdges(n, rng);
    const int bad = rng.bernoulli(0.5) ? n + pick(rng, 5) : -1 - pick(rng, 5);
    const int ok = pick(rng, n);
    const int at = pick(rng, static_cast<int>(edges.size()) + 1);
    edges.insert(edges.begin() + at,
                 rng.bernoulli(0.5) ? std::pair{bad, ok} : std::pair{ok, bad});
    EXPECT_THROW(Pattern::fromEdges(n, edges), ContractViolation) << trial;
  }
  EXPECT_THROW(Pattern::fromEdges(0, {{0, 0}}), ContractViolation);
  EXPECT_THROW(Pattern::fromEdges(-1, {}), ContractViolation);
}

TEST(PatternOracle, PermutedMatchesRelabelledEdges) {
  Rng rng(103);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = trial == 0 ? 0 : pick(rng, 80);
    const Pattern p = Pattern::fromEdges(n, randomEdges(n, rng));
    const std::vector<int> new_to_old = randomPermutation(n, rng);
    const std::vector<int> old_to_new = invertPermutation(new_to_old);
    std::vector<std::pair<int, int>> relabelled;
    for (const auto& [i, j] : edgesOf(p))
      relabelled.emplace_back(old_to_new[static_cast<std::size_t>(i)],
                              old_to_new[static_cast<std::size_t>(j)]);
    const Csr want = referenceFromEdges(n, relabelled);
    const Pattern got = p.permuted(new_to_old);
    ASSERT_EQ(got.ptr(), want.ptr) << "trial " << trial;
    ASSERT_EQ(got.ind(), want.ind) << "trial " << trial;
  }
}

TEST(PatternOracle, InducedMatchesFilteredEdges) {
  Rng rng(104);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = trial == 0 ? 0 : pick(rng, 80);
    const Pattern p = Pattern::fromEdges(n, randomEdges(n, rng));
    std::vector<int> verts = randomPermutation(n, rng);
    verts.resize(static_cast<std::size_t>(pick(rng, n + 1)));
    std::vector<int> local(static_cast<std::size_t>(n), -1);
    for (std::size_t i = 0; i < verts.size(); ++i)
      local[static_cast<std::size_t>(verts[i])] = static_cast<int>(i);
    std::vector<std::pair<int, int>> kept;
    for (const auto& [i, j] : edgesOf(p)) {
      const int li = local[static_cast<std::size_t>(i)];
      const int lj = local[static_cast<std::size_t>(j)];
      if (li != -1 && lj != -1) kept.emplace_back(li, lj);
    }
    const Csr want = referenceFromEdges(static_cast<int>(verts.size()), kept);
    std::vector<int> scratch(static_cast<std::size_t>(n), -1);
    const Pattern got = p.induced(verts, scratch);
    ASSERT_EQ(got.ptr(), want.ptr) << "trial " << trial;
    ASSERT_EQ(got.ind(), want.ind) << "trial " << trial;
    EXPECT_TRUE(std::all_of(scratch.begin(), scratch.end(),
                            [](int v) { return v == -1; }));
  }
}

TEST(PatternOracle, InducedRejectsRepeatedVertices) {
  const auto p = Pattern::fromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  std::vector<int> scratch(4, -1);
  EXPECT_THROW(p.induced({1, 2, 1}, scratch), ContractViolation);
  std::vector<int> wrong_size(3, -1);
  EXPECT_THROW(p.induced({0}, wrong_size), ContractViolation);
}

TEST(PermutationHelpers, InvertAndIdentity) {
  const std::vector<int> p{2, 0, 1};
  const auto inv = invertPermutation(p);
  EXPECT_EQ(inv, (std::vector<int>{1, 2, 0}));
  EXPECT_TRUE(isPermutation(p));
  EXPECT_FALSE(isPermutation({0, 0, 1}));
  EXPECT_FALSE(isPermutation({0, 3, 1}));
  EXPECT_EQ(identityPermutation(3), (std::vector<int>{0, 1, 2}));
}

TEST(Generators, Grid2dStructure) {
  const auto g = grid2d(4, 3);
  EXPECT_EQ(g.n(), 12);
  // Interior vertex 5 = (1,1): 4 neighbours in the 5-point stencil.
  EXPECT_EQ(g.degree(5), 4);
  EXPECT_EQ(g.degree(0), 2);  // corner
  std::vector<int> labels;
  EXPECT_EQ(g.connectedComponents(&labels), 1);
}

TEST(Generators, Grid2dNinePoint) {
  const auto g = grid2d(4, 4, /*nine_point=*/true);
  EXPECT_EQ(g.degree(5), 8);  // interior of a 9-point stencil
}

TEST(Generators, Grid3dStructure) {
  const auto g = grid3d(3, 3, 3);
  EXPECT_EQ(g.n(), 27);
  EXPECT_EQ(g.degree(13), 6);  // centre of the 7-point stencil
  const auto g27 = grid3d(3, 3, 3, /*27pt=*/true);
  EXPECT_EQ(g27.degree(13), 26);
}

TEST(Generators, LpAATHasCliques) {
  Rng rng(7);
  const auto g = lpAAT(200, 300, 4, rng);
  EXPECT_EQ(g.n(), 200);
  EXPECT_GT(g.adjCount(), 0);
}

TEST(Generators, CircuitLikeHasHubs) {
  Rng rng(7);
  const auto g = circuitLike(20000, 4, 6, rng);
  int max_deg = 0;
  double avg = static_cast<double>(g.adjCount()) / g.n();
  for (int v = 0; v < g.n(); ++v) max_deg = std::max(max_deg, g.degree(v));
  // Hub nets tower over the average degree.
  EXPECT_GT(max_deg, 5 * avg);
}

TEST(Generators, RandomMeshIsModestDegree) {
  Rng rng(9);
  const auto g = randomMesh(1000, 6, rng);
  EXPECT_EQ(g.n(), 1000);
  double avg = static_cast<double>(g.adjCount()) / g.n();
  EXPECT_GT(avg, 4.0);
  EXPECT_LT(avg, 20.0);
}

TEST(Generators, PaperSuitesAreComplete) {
  const auto small = paperSuiteSmall(0.5);
  ASSERT_EQ(small.size(), 8u);
  EXPECT_EQ(small[0].name, "BMWCRA_1");
  EXPECT_TRUE(small[0].symmetric);
  EXPECT_FALSE(small[6].symmetric);  // ULTRASOUND3 is UNS
  const auto large = paperSuiteLarge(0.5);
  ASSERT_EQ(large.size(), 3u);
  EXPECT_EQ(large[0].name, "AUDIKW_1");
}

TEST(Generators, SuiteIsDeterministic) {
  const auto a = paperSuiteSmall(0.3, 42);
  const auto b = paperSuiteSmall(0.3, 42);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].pattern.n(), b[i].pattern.n());
    EXPECT_EQ(a[i].pattern.adjCount(), b[i].pattern.adjCount());
  }
}

TEST(Generators, ScaleChangesSize) {
  const auto s1 = paperSuiteSmall(0.25);
  const auto s2 = paperSuiteSmall(1.0);
  EXPECT_LT(s1[0].pattern.n(), s2[0].pattern.n());
}

TEST(Generators, PaperProblemLookup) {
  EXPECT_TRUE(paperProblem("gupta3", 0.25).has_value());
  EXPECT_TRUE(paperProblem("AUDIKW_1", 0.25).has_value());
  EXPECT_FALSE(paperProblem("NOT_A_MATRIX").has_value());
}

TEST(MatrixMarket, RoundTrip) {
  const auto g = grid2d(3, 3);
  std::stringstream ss;
  writeMatrixMarket(ss, g);
  MatrixMarketInfo info;
  const auto back = readMatrixMarket(ss, &info);
  EXPECT_TRUE(info.symmetric);
  EXPECT_EQ(back.n(), g.n());
  EXPECT_EQ(back.adjCount(), g.adjCount());
  for (int i = 0; i < g.n(); ++i)
    for (const int j : g.row(i)) EXPECT_TRUE(back.hasEdge(i, j));
}

TEST(MatrixMarket, ParsesGeneralWithValues) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "3 3 4\n"
      "1 1 5.0\n"
      "2 1 -1.0\n"
      "1 2 -1.0\n"
      "3 3 2.0\n");
  const auto p = readMatrixMarket(ss);
  EXPECT_EQ(p.n(), 3);
  EXPECT_TRUE(p.hasEdge(0, 1));
  EXPECT_EQ(p.adjCount(), 2);
}

TEST(MatrixMarket, RejectsMalformed) {
  std::stringstream no_banner("3 3 1\n1 1\n");
  EXPECT_THROW(readMatrixMarket(no_banner), ContractViolation);
  std::stringstream rect(
      "%%MatrixMarket matrix coordinate pattern general\n2 3 1\n1 1\n");
  EXPECT_THROW(readMatrixMarket(rect), ContractViolation);
  std::stringstream oob(
      "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n");
  EXPECT_THROW(readMatrixMarket(oob), ContractViolation);
}

}  // namespace
}  // namespace loadex::sparse
