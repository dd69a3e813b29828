#include "symbolic/etree.h"

#include <algorithm>

#include "common/expect.h"

namespace loadex::symbolic {

std::vector<int> eliminationTree(const sparse::Pattern& pattern) {
  const int n = pattern.n();
  std::vector<int> parent(static_cast<std::size_t>(n), -1);
  std::vector<int> ancestor(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    for (const int j : pattern.row(i)) {
      if (j >= i) continue;
      // Walk from j to the root of its current subtree, compressing the
      // ancestor path, then link that root to i.
      int k = j;
      while (ancestor[static_cast<std::size_t>(k)] != -1 &&
             ancestor[static_cast<std::size_t>(k)] != i) {
        const int next = ancestor[static_cast<std::size_t>(k)];
        ancestor[static_cast<std::size_t>(k)] = i;
        k = next;
      }
      if (ancestor[static_cast<std::size_t>(k)] == -1) {
        ancestor[static_cast<std::size_t>(k)] = i;
        parent[static_cast<std::size_t>(k)] = i;
      }
    }
  }
  return parent;
}

std::vector<int> postorder(const std::vector<int>& parent) {
  const int n = static_cast<int>(parent.size());
  // Children lists, built so smaller children come first.
  std::vector<int> head(static_cast<std::size_t>(n), -1);
  std::vector<int> next(static_cast<std::size_t>(n), -1);
  for (int v = n - 1; v >= 0; --v) {
    const int p = parent[static_cast<std::size_t>(v)];
    if (p != -1) {
      next[static_cast<std::size_t>(v)] = head[static_cast<std::size_t>(p)];
      head[static_cast<std::size_t>(p)] = v;
    }
  }
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<std::pair<int, int>> stack;  // (node, next child to expand)
  for (int root = 0; root < n; ++root) {
    if (parent[static_cast<std::size_t>(root)] != -1) continue;
    stack.emplace_back(root, head[static_cast<std::size_t>(root)]);
    while (!stack.empty()) {
      auto& [v, child] = stack.back();
      if (child == -1) {
        order.push_back(v);
        stack.pop_back();
      } else {
        const int c = child;
        child = next[static_cast<std::size_t>(c)];
        stack.emplace_back(c, head[static_cast<std::size_t>(c)]);
      }
    }
  }
  LOADEX_EXPECT(static_cast<int>(order.size()) == n,
                "postorder did not visit every node (cycle in parent[]?)");
  return order;
}

std::vector<std::int64_t> columnCounts(const sparse::Pattern& pattern,
                                       const std::vector<int>& parent) {
  // Gilbert–Ng–Peyton: count(j) = number of row subtrees that contain j.
  // Walking the nodes in postorder, each entry A(i,j) (i > j) whose column
  // j is a leaf of row subtree i adds one at j; when j is not the first
  // leaf of that subtree, the path from the previous leaf already counted
  // everything above their least common ancestor q, so q gives one back.
  // Summing these deltas over each subtree yields the counts. The LCAs come
  // from a path-compressed disjoint-set forest, for O(nnz(A)·α(n)) total.
  const int n = pattern.n();
  LOADEX_EXPECT(static_cast<int>(parent.size()) == n, "parent size mismatch");
  const auto at = [](auto& v, int k) -> auto& {
    return v[static_cast<std::size_t>(k)];
  };
  const std::vector<int> post = postorder(parent);

  // first[j]: postorder index of the first descendant of j; a node is a
  // leaf of the etree exactly when no earlier node claimed it.
  std::vector<std::int64_t> delta(static_cast<std::size_t>(n), 0);
  std::vector<int> first(static_cast<std::size_t>(n), -1);
  for (int k = 0; k < n; ++k) {
    int j = at(post, k);
    at(delta, j) = at(first, j) == -1 ? 1 : 0;
    for (; j != -1 && at(first, j) == -1; j = at(parent, j)) at(first, j) = k;
  }

  std::vector<int> max_first(static_cast<std::size_t>(n), -1);
  std::vector<int> prev_leaf(static_cast<std::size_t>(n), -1);
  std::vector<int> ancestor(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) at(ancestor, i) = i;
  for (int k = 0; k < n; ++k) {
    const int j = at(post, k);
    if (at(parent, j) != -1) --at(delta, at(parent, j));
    for (const int i : pattern.row(j)) {
      // Is j a leaf of row subtree i (not inside an earlier leaf's span)?
      if (i <= j || at(first, j) <= at(max_first, i)) continue;
      at(max_first, i) = at(first, j);
      const int prev = at(prev_leaf, i);
      at(prev_leaf, i) = j;
      ++at(delta, j);
      if (prev == -1) continue;  // first leaf of the subtree
      int q = prev;
      while (q != at(ancestor, q)) q = at(ancestor, q);
      for (int s = prev; s != q;) {
        const int up = at(ancestor, s);
        at(ancestor, s) = q;
        s = up;
      }
      --at(delta, q);
    }
    if (at(parent, j) != -1) at(ancestor, j) = at(parent, j);
  }
  // Children precede parents in index order in an elimination tree, so one
  // ascending pass accumulates every subtree.
  for (int j = 0; j < n; ++j) {
    const int p = at(parent, j);
    if (p == -1) continue;
    LOADEX_EXPECT(p > j, "parent[] is not an elimination tree");
    at(delta, p) += at(delta, j);
  }
  return delta;
}

int treeHeight(const std::vector<int>& parent) {
  const int n = static_cast<int>(parent.size());
  std::vector<int> depth(static_cast<std::size_t>(n), -1);
  int height = 0;
  for (int v = 0; v < n; ++v) {
    // Walk up until a node with known depth.
    int len = 0;
    int k = v;
    while (k != -1 && depth[static_cast<std::size_t>(k)] == -1) {
      ++len;
      k = parent[static_cast<std::size_t>(k)];
    }
    int base = (k == -1) ? 0 : depth[static_cast<std::size_t>(k)] + 1;
    // Assign depths along the walked path.
    k = v;
    int d = base + len - 1;
    while (k != -1 && depth[static_cast<std::size_t>(k)] == -1) {
      depth[static_cast<std::size_t>(k)] = d--;
      k = parent[static_cast<std::size_t>(k)];
    }
    height = std::max(height, depth[static_cast<std::size_t>(v)] + 1);
  }
  return height;
}

}  // namespace loadex::symbolic
