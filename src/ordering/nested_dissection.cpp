#include <algorithm>
#include <numeric>

#include "common/expect.h"
#include "ordering/ordering.h"

namespace loadex::ordering {

namespace {

/// A subproblem: the induced subgraph on `verts` (global ids), stored as a
/// local Pattern with local ids 0..verts.size()-1.
struct Sub {
  std::vector<int> verts;  ///< local -> global
  sparse::Pattern graph;
};

Sub induce(const sparse::Pattern& g, std::vector<int> verts,
           std::vector<int>& global_to_local) {
  Sub sub;
  sub.graph = g.induced(verts, global_to_local);
  sub.verts = std::move(verts);
  return sub;
}

/// BFS levels from `start` on `g`; returns level of each vertex (-1 if
/// unreached) and the number of levels.
int bfsLevels(const sparse::Pattern& g, int start, std::vector<int>& level) {
  level.assign(static_cast<std::size_t>(g.n()), -1);
  std::vector<int> queue;
  queue.reserve(static_cast<std::size_t>(g.n()));
  queue.push_back(start);
  level[static_cast<std::size_t>(start)] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const int v = queue[head];
    for (const int w : g.row(v)) {
      if (level[static_cast<std::size_t>(w)] == -1) {
        level[static_cast<std::size_t>(w)] =
            level[static_cast<std::size_t>(v)] + 1;
        queue.push_back(w);
      }
    }
  }
  return level[static_cast<std::size_t>(queue.back())] + 1;
}

void orderRecursive(const sparse::Pattern& g, Sub sub,
                    const NestedDissectionOptions& opts, int depth,
                    std::vector<int>& global_to_local,
                    std::vector<int>& out_perm) {
  const int n = sub.graph.n();
  if (n == 0) return;

  // Small or too deep: finish with minimum degree for fill quality.
  if (n <= opts.leaf_size || depth >= opts.max_depth) {
    const auto local = minimumDegree(sub.graph);
    for (const int l : local)
      out_perm.push_back(sub.verts[static_cast<std::size_t>(l)]);
    return;
  }

  // Split disconnected subgraphs into components first.
  std::vector<int> comp;
  const int ncomp = sub.graph.connectedComponents(&comp);
  if (ncomp > 1) {
    std::vector<std::vector<int>> parts(static_cast<std::size_t>(ncomp));
    for (int v = 0; v < n; ++v)
      parts[static_cast<std::size_t>(comp[static_cast<std::size_t>(v)])]
          .push_back(sub.verts[static_cast<std::size_t>(v)]);
    for (auto& p : parts)
      orderRecursive(g, induce(g, std::move(p), global_to_local), opts,
                     depth, global_to_local, out_perm);
    return;
  }

  // Level-set separator: BFS from a pseudo-peripheral vertex, cut at the
  // median level.
  const int start = pseudoPeripheral(sub.graph, 0);
  std::vector<int> level;
  const int nlevels = bfsLevels(sub.graph, start, level);
  if (nlevels < 3) {
    // No useful separator (e.g. a clique): minimum degree finishes it.
    const auto local = minimumDegree(sub.graph);
    for (const int l : local)
      out_perm.push_back(sub.verts[static_cast<std::size_t>(l)]);
    return;
  }

  // Choose the level whose prefix holds ~half the vertices.
  std::vector<int> level_count(static_cast<std::size_t>(nlevels), 0);
  for (const int l : level) ++level_count[static_cast<std::size_t>(l)];
  int cut = 1, below = level_count[0];
  while (cut < nlevels - 1 &&
         below + level_count[static_cast<std::size_t>(cut)] < n / 2) {
    below += level_count[static_cast<std::size_t>(cut)];
    ++cut;
  }

  std::vector<int> a, b, sep;
  for (int v = 0; v < n; ++v) {
    const int gl = sub.verts[static_cast<std::size_t>(v)];
    const int l = level[static_cast<std::size_t>(v)];
    if (l < cut)
      a.push_back(gl);
    else if (l > cut)
      b.push_back(gl);
    else
      sep.push_back(gl);
  }
  if (a.empty() || b.empty()) {
    const auto local = minimumDegree(sub.graph);
    for (const int l : local)
      out_perm.push_back(sub.verts[static_cast<std::size_t>(l)]);
    return;
  }

  orderRecursive(g, induce(g, std::move(a), global_to_local), opts, depth + 1,
                 global_to_local, out_perm);
  orderRecursive(g, induce(g, std::move(b), global_to_local), opts, depth + 1,
                 global_to_local, out_perm);
  // The separator is eliminated last: it becomes the subtree root front.
  for (const int s : sep) out_perm.push_back(s);
}

}  // namespace

std::vector<int> nestedDissection(const sparse::Pattern& pattern,
                                  NestedDissectionOptions options) {
  const int n = pattern.n();
  std::vector<int> perm;
  perm.reserve(static_cast<std::size_t>(n));
  std::vector<int> scratch(static_cast<std::size_t>(n), -1);

  // Quasi-dense rows (hub nets in circuit matrices, dense LP rows) wreck
  // level-set separators; order them last — the standard dense-row
  // deferral — and dissect the sparse remainder.
  double avg_deg =
      n > 0 ? static_cast<double>(pattern.adjCount()) / n : 0.0;
  const int dense_cut = std::max(
      options.dense_degree_min,
      static_cast<int>(options.dense_degree_factor * (avg_deg + 1.0)));
  std::vector<int> sparse_part, dense_part;
  sparse_part.reserve(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    if (pattern.degree(v) >= dense_cut)
      dense_part.push_back(v);
    else
      sparse_part.push_back(v);
  }
  if (dense_part.size() > static_cast<std::size_t>(n) / 4) {
    // Mostly-dense matrix: deferral does not apply.
    sparse_part.resize(static_cast<std::size_t>(n));
    std::iota(sparse_part.begin(), sparse_part.end(), 0);
    dense_part.clear();
  }

  orderRecursive(pattern, induce(pattern, std::move(sparse_part), scratch),
                 options, 0, scratch, perm);
  std::sort(dense_part.begin(), dense_part.end(), [&](int a, int b) {
    return pattern.degree(a) < pattern.degree(b);
  });
  perm.insert(perm.end(), dense_part.begin(), dense_part.end());

  LOADEX_EXPECT(sparse::isPermutation(perm),
                "nested dissection produced a non-permutation");
  return perm;
}

const char* orderingKindName(OrderingKind kind) {
  switch (kind) {
    case OrderingKind::kNatural: return "natural";
    case OrderingKind::kRcm: return "rcm";
    case OrderingKind::kMinDegree: return "min_degree";
    case OrderingKind::kNestedDissection: return "nested_dissection";
  }
  return "?";
}

OrderingKind parseOrderingKind(const std::string& name) {
  if (name == "natural") return OrderingKind::kNatural;
  if (name == "rcm") return OrderingKind::kRcm;
  if (name == "min_degree" || name == "amd") return OrderingKind::kMinDegree;
  if (name == "nested_dissection" || name == "nd" || name == "metis")
    return OrderingKind::kNestedDissection;
  LOADEX_EXPECT(false, "unknown ordering kind: " + name);
}

std::vector<int> computeOrdering(const sparse::Pattern& pattern,
                                 OrderingKind kind) {
  switch (kind) {
    case OrderingKind::kNatural:
      return sparse::identityPermutation(pattern.n());
    case OrderingKind::kRcm:
      return reverseCuthillMcKee(pattern);
    case OrderingKind::kMinDegree:
      return minimumDegree(pattern);
    case OrderingKind::kNestedDissection:
      return nestedDissection(pattern);
  }
  LOADEX_EXPECT(false, "unknown ordering kind");
}

}  // namespace loadex::ordering
