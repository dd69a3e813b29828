#include <algorithm>

#include "common/expect.h"
#include "ordering/ordering.h"

namespace loadex::ordering {

namespace {

/// Degree-sorted BFS (Cuthill–McKee style) over unvisited vertices. One
/// instance serves every search of a call, so its buffers are allocated
/// once instead of per level and per vertex.
class Bfs {
 public:
  std::vector<int> order;    ///< visit order (component of the start vertex)
  int levels = 0;            ///< eccentricity + 1
  int last_level_start = 0;  ///< index into order of the last level

  void run(const sparse::Pattern& g, int start, std::vector<bool>& visited) {
    const auto by_degree = [&](int a, int b) {
      return g.degree(a) < g.degree(b);
    };
    order.clear();
    levels = 0;
    last_level_start = 0;
    order.push_back(start);
    visited[static_cast<std::size_t>(start)] = true;
    std::size_t head = 0;
    while (head < order.size()) {
      const std::size_t level_end = order.size();
      last_level_start = static_cast<int>(head);
      ++levels;
      level_.assign(order.begin() + static_cast<std::ptrdiff_t>(head),
                    order.begin() + static_cast<std::ptrdiff_t>(level_end));
      std::sort(level_.begin(), level_.end(), by_degree);
      for (const int v : level_) {
        // Only the relative order of unvisited neighbours matters; with
        // fewer than two of them the (unstable) sort of the row is moot.
        const auto row = g.row(v);
        const auto fresh = std::count_if(row.begin(), row.end(), [&](int w) {
          return !visited[static_cast<std::size_t>(w)];
        });
        if (fresh == 0) continue;
        nbrs_.assign(row.begin(), row.end());
        if (fresh > 1) std::sort(nbrs_.begin(), nbrs_.end(), by_degree);
        for (const int w : nbrs_) {
          if (!visited[static_cast<std::size_t>(w)]) {
            visited[static_cast<std::size_t>(w)] = true;
            order.push_back(w);
          }
        }
      }
      head = level_end;
    }
  }

 private:
  std::vector<int> level_;
  std::vector<int> nbrs_;
};

/// George–Liu iteration (see pseudoPeripheral) with caller-owned buffers.
/// `visited` must be all false; it is left that way on return.
int pseudoPeripheral(const sparse::Pattern& g, int start, Bfs& bfs,
                     std::vector<bool>& visited) {
  int v = start;
  int best_levels = -1;
  for (int iter = 0; iter < 8; ++iter) {
    bfs.run(g, v, visited);
    for (const int w : bfs.order) visited[static_cast<std::size_t>(w)] = false;
    if (bfs.levels <= best_levels) break;
    best_levels = bfs.levels;
    int cand = bfs.order.back();
    for (std::size_t i = static_cast<std::size_t>(bfs.last_level_start);
         i < bfs.order.size(); ++i)
      if (g.degree(bfs.order[i]) < g.degree(cand)) cand = bfs.order[i];
    v = cand;
  }
  return v;
}

}  // namespace

/// Find a pseudo-peripheral vertex of the component containing `start`
/// (George–Liu iteration: hop to a low-degree vertex of the deepest level
/// until the eccentricity stops improving).
int pseudoPeripheral(const sparse::Pattern& g, int start) {
  Bfs bfs;
  std::vector<bool> visited(static_cast<std::size_t>(g.n()), false);
  return pseudoPeripheral(g, start, bfs, visited);
}

std::vector<int> reverseCuthillMcKee(const sparse::Pattern& pattern) {
  const int n = pattern.n();
  std::vector<bool> visited(static_cast<std::size_t>(n), false);
  std::vector<bool> scratch(static_cast<std::size_t>(n), false);
  Bfs bfs;
  std::vector<int> perm;
  perm.reserve(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) {
    if (visited[static_cast<std::size_t>(s)]) continue;
    const int start = pseudoPeripheral(pattern, s, bfs, scratch);
    bfs.run(pattern, start, visited);
    perm.insert(perm.end(), bfs.order.begin(), bfs.order.end());
  }
  std::reverse(perm.begin(), perm.end());
  LOADEX_EXPECT(sparse::isPermutation(perm), "RCM produced a non-permutation");
  return perm;
}

}  // namespace loadex::ordering
