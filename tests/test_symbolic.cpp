#include "symbolic/analysis.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>

#include "common/expect.h"
#include "common/rng.h"
#include "ordering/ordering.h"
#include "sparse/generators.h"
#include "symbolic/etree.h"

namespace loadex::symbolic {
namespace {

// Brute-force Boolean Cholesky fill on a dense copy; returns per-column
// counts of L (incl. diagonal). O(n^3); for cross-checking only.
std::vector<std::int64_t> bruteColCounts(const sparse::Pattern& p) {
  const int n = p.n();
  std::vector<std::vector<bool>> a(static_cast<std::size_t>(n),
                                   std::vector<bool>(static_cast<std::size_t>(n), false));
  for (int i = 0; i < n; ++i)
    for (const int j : p.row(i)) a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = true;
  for (int k = 0; k < n; ++k)
    for (int i = k + 1; i < n; ++i)
      if (a[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)])
        for (int j = k + 1; j < n; ++j)
          if (a[static_cast<std::size_t>(j)][static_cast<std::size_t>(k)]) {
            a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = true;
            a[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = true;
          }
  std::vector<std::int64_t> count(static_cast<std::size_t>(n), 0);
  for (int j = 0; j < n; ++j) {
    count[static_cast<std::size_t>(j)] = 1;
    for (int i = j + 1; i < n; ++i)
      if (a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)])
        ++count[static_cast<std::size_t>(j)];
  }
  return count;
}

// Brute-force elimination tree: parent(j) = min{i > j : L(i,j) != 0}.
std::vector<int> bruteEtree(const sparse::Pattern& p) {
  const auto counts = bruteColCounts(p);  // fills `a` internally; redo here
  const int n = p.n();
  std::vector<std::vector<bool>> a(static_cast<std::size_t>(n),
                                   std::vector<bool>(static_cast<std::size_t>(n), false));
  for (int i = 0; i < n; ++i)
    for (const int j : p.row(i)) a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = true;
  for (int k = 0; k < n; ++k)
    for (int i = k + 1; i < n; ++i)
      if (a[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)])
        for (int j = k + 1; j < n; ++j)
          if (a[static_cast<std::size_t>(j)][static_cast<std::size_t>(k)]) {
            a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = true;
            a[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = true;
          }
  std::vector<int> parent(static_cast<std::size_t>(n), -1);
  for (int j = 0; j < n; ++j)
    for (int i = j + 1; i < n; ++i)
      if (a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]) {
        parent[static_cast<std::size_t>(j)] = i;
        break;
      }
  (void)counts;
  return parent;
}

TEST(Etree, PathGraphIsAChain) {
  std::vector<std::pair<int, int>> e;
  for (int i = 0; i + 1 < 6; ++i) e.emplace_back(i, i + 1);
  const auto p = sparse::Pattern::fromEdges(6, std::move(e));
  const auto parent = eliminationTree(p);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(parent[static_cast<std::size_t>(i)], i + 1);
  EXPECT_EQ(parent[5], -1);
}

TEST(Etree, MatchesBruteForceOnRandomGraphs) {
  Rng rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 20 + static_cast<int>(rng.uniformInt(30));
    std::vector<std::pair<int, int>> e;
    const int ne = n * 2;
    for (int k = 0; k < ne; ++k)
      e.emplace_back(static_cast<int>(rng.uniformInt(n)),
                     static_cast<int>(rng.uniformInt(n)));
    const auto p = sparse::Pattern::fromEdges(n, std::move(e));
    EXPECT_EQ(eliminationTree(p), bruteEtree(p)) << "trial " << trial;
  }
}

TEST(ColCounts, MatchBruteForceOnRandomGraphs) {
  Rng rng(22);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 15 + static_cast<int>(rng.uniformInt(25));
    std::vector<std::pair<int, int>> e;
    for (int k = 0; k < n * 2; ++k)
      e.emplace_back(static_cast<int>(rng.uniformInt(n)),
                     static_cast<int>(rng.uniformInt(n)));
    const auto p = sparse::Pattern::fromEdges(n, std::move(e));
    const auto parent = eliminationTree(p);
    EXPECT_EQ(columnCounts(p, parent), bruteColCounts(p)) << "trial " << trial;
  }
}

// The original row-subtree column counts: for each row i, climb the etree
// from every j < i in row i up to i, counting each node once. O(nnz(L));
// kept as the reference the skeleton/LCA algorithm must reproduce.
std::vector<std::int64_t> referenceColumnCounts(
    const sparse::Pattern& pattern, const std::vector<int>& parent) {
  const int n = pattern.n();
  std::vector<std::int64_t> count(static_cast<std::size_t>(n), 1);  // diag
  std::vector<int> mark(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    mark[static_cast<std::size_t>(i)] = i;
    for (const int j : pattern.row(i)) {
      if (j >= i) continue;
      int k = j;
      while (k != -1 && k != i && mark[static_cast<std::size_t>(k)] != i) {
        ++count[static_cast<std::size_t>(k)];
        mark[static_cast<std::size_t>(k)] = i;
        k = parent[static_cast<std::size_t>(k)];
      }
    }
  }
  return count;
}

/// Random pattern made of `parts` disjoint random subgraphs (so its
/// elimination tree is a forest), vertices shuffled across the index range.
sparse::Pattern randomForestPattern(int n, int parts, Rng& rng) {
  std::vector<int> label = sparse::identityPermutation(n);
  rng.shuffle(label);
  std::vector<std::pair<int, int>> e;
  const int per = std::max(1, n / parts);
  for (int k = 0; k < 3 * n; ++k) {
    const int a = static_cast<int>(rng.uniformInt(n));
    const int base = (a / per) * per;
    const int span = std::min(per, n - base);
    const int b = base + static_cast<int>(rng.uniformInt(span));
    e.emplace_back(label[static_cast<std::size_t>(a)],
                   label[static_cast<std::size_t>(b)]);
  }
  return sparse::Pattern::fromEdges(n, std::move(e));
}

TEST(ColCounts, MatchRowSubtreeReferenceUnderOrderings) {
  Rng rng(23);
  int forests = 0;  // trials whose elimination tree has several roots
  for (int trial = 0; trial < 60; ++trial) {
    const int n = trial == 0 ? 0 : 1 + static_cast<int>(rng.uniformInt(400));
    const int parts = 1 + static_cast<int>(rng.uniformInt(4));
    const auto g = randomForestPattern(n, parts, rng);
    std::vector<int> random_order = sparse::identityPermutation(n);
    rng.shuffle(random_order);
    for (const auto& perm : {random_order, ordering::nestedDissection(g),
                             ordering::reverseCuthillMcKee(g)}) {
      const auto p = g.permuted(perm);
      const auto parent = eliminationTree(p);
      ASSERT_EQ(columnCounts(p, parent), referenceColumnCounts(p, parent))
          << "trial " << trial << " n " << n << " parts " << parts;
    }
    const auto etree = eliminationTree(g);
    forests += std::count(etree.begin(), etree.end(), -1) > 1;
  }
  EXPECT_GT(forests, 0);
}

TEST(ColCounts, MatchRowSubtreeReferenceOnPaperFamilies) {
  Rng rng(24);
  const std::vector<sparse::Pattern> graphs = {
      sparse::grid3d(9, 8, 7, true),
      sparse::lpAAT(300, 600, 5, rng),
      sparse::circuitLike(2000, 4, 6, rng),
      sparse::randomMesh(1500, 6, rng, true),
  };
  for (const auto& g : graphs) {
    const auto p = g.permuted(ordering::nestedDissection(g));
    const auto parent = eliminationTree(p);
    EXPECT_EQ(columnCounts(p, parent), referenceColumnCounts(p, parent));
  }
}

TEST(Postorder, ChildrenBeforeParents) {
  // Tree: 5 <- {3, 4}, 3 <- {0, 1}, 4 <- {2}.
  const std::vector<int> parent{3, 3, 4, 5, 5, -1};
  const auto post = postorder(parent);
  ASSERT_EQ(post.size(), 6u);
  std::vector<int> pos(6);
  for (int i = 0; i < 6; ++i) pos[static_cast<std::size_t>(post[static_cast<std::size_t>(i)])] = i;
  for (int v = 0; v < 6; ++v) {
    if (parent[static_cast<std::size_t>(v)] != -1) {
      EXPECT_LT(pos[static_cast<std::size_t>(v)],
                pos[static_cast<std::size_t>(parent[static_cast<std::size_t>(v)])]);
    }
  }
}

TEST(Postorder, ForestsCoverAllRoots) {
  const std::vector<int> parent{-1, -1, -1};
  EXPECT_EQ(postorder(parent).size(), 3u);
}

TEST(TreeHeight, Chain) {
  const std::vector<int> parent{1, 2, 3, -1};
  EXPECT_EQ(treeHeight(parent), 4);
}

TEST(Analysis, MonotoneEtreeAndExactNnz) {
  const auto g = sparse::grid2d(9, 9);
  const auto a = analyze(g, ordering::nestedDissection(g));
  for (int j = 0; j < g.n(); ++j) {
    const int p = a.parent[static_cast<std::size_t>(j)];
    EXPECT_TRUE(p == -1 || p > j) << j;
  }
  std::int64_t sum = 0;
  for (const auto c : a.col_count) sum += c;
  EXPECT_EQ(sum, a.factor_nnz);
  EXPECT_TRUE(sparse::isPermutation(a.perm));
}

TEST(Analysis, PermutationComposesCorrectly) {
  // The combined permutation must yield the same factor size as applying
  // it directly (self-consistency of the composition).
  const auto g = sparse::grid2d(8, 7);
  const auto a = analyze(g, ordering::minimumDegree(g));
  const auto direct = analyze(g, a.perm);
  EXPECT_EQ(direct.factor_nnz, a.factor_nnz);
}

TEST(AssemblyTree, PivotsConserved) {
  const auto g = sparse::grid3d(5, 5, 5);
  const auto a = analyze(g, ordering::nestedDissection(g));
  EXPECT_EQ(a.tree.totalPivots(), g.n());
  EXPECT_GT(a.tree.size(), 1);
  EXPECT_LT(a.tree.size(), g.n());  // amalgamation compressed something
}

TEST(AssemblyTree, StructureInvariants) {
  const auto g = sparse::grid2d(16, 16);
  const auto a = analyze(g, ordering::nestedDissection(g));
  const auto& tree = a.tree;
  int root_count = 0;
  for (const auto& nd : tree.nodes()) {
    EXPECT_GT(nd.npiv, 0);
    EXPECT_GE(nd.front, nd.npiv);
    if (nd.parent == -1) {
      ++root_count;
      EXPECT_EQ(nd.border(), 0);  // roots have no contribution block
    } else {
      EXPECT_NE(nd.parent, nd.id);
      EXPECT_GE(tree.node(nd.parent).id, 0);
    }
    for (const int c : nd.children) EXPECT_EQ(tree.node(c).parent, nd.id);
  }
  EXPECT_EQ(static_cast<int>(tree.roots().size()), root_count);
  // Postorder: children before parents.
  std::vector<int> pos(static_cast<std::size_t>(tree.size()), -1);
  for (int i = 0; i < tree.size(); ++i)
    pos[static_cast<std::size_t>(tree.postorder()[static_cast<std::size_t>(i)])] = i;
  for (const auto& nd : tree.nodes()) {
    if (nd.parent != -1) {
      EXPECT_LT(pos[static_cast<std::size_t>(nd.id)],
                pos[static_cast<std::size_t>(nd.parent)]);
    }
  }
}

TEST(AssemblyTree, AmalgamationMonotoneInTolerance) {
  const auto g = sparse::grid2d(20, 20);
  const auto perm = ordering::nestedDissection(g);
  const sparse::Pattern permuted = g.permuted(perm);
  const auto parent0 = eliminationTree(permuted);
  const auto post = postorder(parent0);
  const auto reordered = permuted.permuted(post);
  const auto parent = eliminationTree(reordered);
  const auto cc = columnCounts(reordered, parent);

  AmalgamationOptions strict;
  strict.small_supernode = 1;
  strict.fill_tolerance = 0.0;
  AmalgamationOptions relaxed;
  relaxed.small_supernode = 16;
  relaxed.fill_tolerance = 0.4;
  const auto t_strict = buildAssemblyTree(parent, cc, strict);
  const auto t_relaxed = buildAssemblyTree(parent, cc, relaxed);
  EXPECT_GE(t_strict.size(), t_relaxed.size());
  EXPECT_EQ(t_strict.totalPivots(), g.n());
  EXPECT_EQ(t_relaxed.totalPivots(), g.n());
}

TEST(AssemblyTree, RenderMentionsFronts) {
  const auto g = sparse::grid2d(10, 10);
  const auto a = analyze(g, ordering::nestedDissection(g));
  const auto text = a.tree.render(10);
  EXPECT_NE(text.find("front #"), std::string::npos);
  EXPECT_NE(text.find("npiv="), std::string::npos);
}

TEST(AssemblyTree, RequiresMonotoneParent) {
  const std::vector<int> bad_parent{2, 0, -1};  // parent[1] = 0 < 1
  const std::vector<std::int64_t> cc{1, 1, 1};
  EXPECT_THROW(buildAssemblyTree(bad_parent, cc), ContractViolation);
}

// ---- golden setup digest ---------------------------------------------------
//
// FNV-1a over everything the symbolic preprocessing hands to the solver for
// each paper problem: the generated pattern, the combined permutation, the
// elimination tree, the column counts and the amalgamated assembly tree
// (front, pivots and parent of every node). Any change to the generators,
// the orderings, the CSR construction or the counting algorithms that moves
// a single output bit changes a digest. The constants are pinned: a change
// that is meant to alter the analysis must update them deliberately.

class Fnv1a {
 public:
  void add(std::int64_t v) {
    auto u = static_cast<std::uint64_t>(v);
    for (int b = 0; b < 8; ++b) {
      h_ ^= (u >> (8 * b)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  template <typename Range>
  void addAll(const Range& r) {
    add(static_cast<std::int64_t>(r.size()));
    for (const auto v : r) add(static_cast<std::int64_t>(v));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t setupDigest(const sparse::Pattern& g) {
  const Analysis a = analyze(g, ordering::nestedDissection(g));
  Fnv1a h;
  h.addAll(g.ptr());
  h.addAll(g.ind());
  h.addAll(a.perm);
  h.addAll(a.parent);
  h.addAll(a.col_count);
  h.add(a.tree.size());
  for (const auto& nd : a.tree.nodes()) {
    h.add(nd.front);
    h.add(nd.npiv);
    h.add(nd.parent);
  }
  return h.value();
}

/// paperSuiteSmall(1.0, 1) followed by paperSuiteLarge(1.0, 1), built once.
const std::vector<sparse::Problem>& paperProblems() {
  static const std::vector<sparse::Problem> problems = [] {
    std::vector<sparse::Problem> all = sparse::paperSuiteSmall(1.0, 1);
    for (auto& p : sparse::paperSuiteLarge(1.0, 1)) all.push_back(std::move(p));
    return all;
  }();
  return problems;
}

using Digests = std::vector<std::pair<std::string, std::uint64_t>>;

template <typename DigestFn>
void expectDigests(const Digests& expected, DigestFn digest) {
  const auto& problems = paperProblems();
  ASSERT_EQ(problems.size(), expected.size());
  for (std::size_t i = 0; i < problems.size(); ++i) {
    EXPECT_EQ(problems[i].name, expected[i].first);
    const std::uint64_t d = digest(problems[i].pattern);
    EXPECT_EQ(d, expected[i].second)
        << problems[i].name << " digest 0x" << std::hex << d;
  }
}

TEST(SetupDigest, PaperSuitesAreBitIdentical) {
  expectDigests(
      {
          {"BMWCRA_1", 0xa4ca8ef4a3d2f08full},
          {"GUPTA3", 0xc54b74f89319a884ull},
          {"MSDOOR", 0x5821333df431f4f4ull},
          {"SHIP_003", 0x63db3430ba5d7367ull},
          {"PRE2", 0x3a0522c52b30d7f9ull},
          {"TWOTONE", 0x1f0c7975ef78a9b3ull},
          {"ULTRASOUND3", 0x729db8d086cb8e2aull},
          {"XENON2", 0xa22bdeadfaf6e3c6ull},
          {"AUDIKW_1", 0xa748af31e48b4184ull},
          {"CONV3D64", 0x22973c34d3821bcdull},
          {"ULTRASOUND80", 0x37d98c73dde3b72cull},
      },
      setupDigest);
}

// Reverse Cuthill–McKee shares the degree-sorted BFS with the
// nested-dissection separator search; pin its orderings too.
TEST(SetupDigest, RcmOrderingsAreBitIdentical) {
  expectDigests(
      {
          {"BMWCRA_1", 0xa36149b0cb8bdcdbull},
          {"GUPTA3", 0x360b10a797c29324ull},
          {"MSDOOR", 0xabc984d2c40c854full},
          {"SHIP_003", 0x6568a45404bd5996ull},
          {"PRE2", 0xfb407ce847243755ull},
          {"TWOTONE", 0x6ca0a14304139732ull},
          {"ULTRASOUND3", 0x11b64b7b2eac77e9ull},
          {"XENON2", 0xb1582429e61e1dfeull},
          {"AUDIKW_1", 0x46373a07041edc0aull},
          {"CONV3D64", 0x3fbadee12f273fbbull},
          {"ULTRASOUND80", 0x8629d71d1a8c588eull},
      },
      [](const sparse::Pattern& g) {
        Fnv1a h;
        h.addAll(ordering::reverseCuthillMcKee(g));
        return h.value();
      });
}

// Parameterized sweep over generators and orderings: pivot conservation
// and sane front sizes everywhere.
using SymbolicParams = std::tuple<int /*graph*/, ordering::OrderingKind>;

class SymbolicSweep : public ::testing::TestWithParam<SymbolicParams> {};

TEST_P(SymbolicSweep, TreeInvariantsHold) {
  const auto [which, kind] = GetParam();
  Rng rng(33 + which);
  sparse::Pattern g;
  switch (which) {
    case 0: g = sparse::grid2d(13, 11); break;
    case 1: g = sparse::grid3d(5, 6, 4); break;
    case 2: g = sparse::circuitLike(500, 4, 4, rng); break;
    default: g = sparse::randomMesh(400, 5, rng); break;
  }
  const auto a = analyze(g, ordering::computeOrdering(g, kind));
  EXPECT_EQ(a.tree.totalPivots(), g.n());
  for (const auto& nd : a.tree.nodes()) {
    EXPECT_GE(nd.front, nd.npiv);
    EXPECT_LE(nd.front, g.n());
  }
  EXPECT_GE(a.factor_nnz, g.n());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SymbolicSweep,
    ::testing::Combine(
        ::testing::Values(0, 1, 2, 3),
        ::testing::Values(ordering::OrderingKind::kRcm,
                          ordering::OrderingKind::kMinDegree,
                          ordering::OrderingKind::kNestedDissection)),
    [](const ::testing::TestParamInfo<SymbolicParams>& info) {
      return "g" + std::to_string(std::get<0>(info.param)) + "_" +
             ordering::orderingKindName(std::get<1>(info.param));
    });

}  // namespace
}  // namespace loadex::symbolic
