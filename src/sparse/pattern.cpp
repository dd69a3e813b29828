#include "sparse/pattern.h"

#include <algorithm>
#include <numeric>

#include "common/expect.h"

namespace loadex::sparse {

namespace {

/// Fill the rows of a square CSR whose row sizes are already in `ptr` (as a
/// prefix sum). `rows_of(c, put)` must call put(r) once for every entry
/// (r, c) of column c. Columns are visited in increasing order, so each
/// row receives its column indices already sorted: a transpose by counting
/// sort instead of a sort per row.
template <typename RowsOf>
std::vector<int> scatterColumns(const std::vector<std::int64_t>& ptr,
                                RowsOf&& rows_of) {
  std::vector<int> ind(static_cast<std::size_t>(ptr.back()));
  std::vector<std::int64_t> next(ptr.begin(), ptr.end() - 1);
  const int n = static_cast<int>(next.size());
  for (int c = 0; c < n; ++c)
    rows_of(c, [&](int r) {
      ind[static_cast<std::size_t>(next[static_cast<std::size_t>(r)]++)] = c;
    });
  return ind;
}

}  // namespace

Pattern Pattern::fromEdges(int n, std::vector<std::pair<int, int>> edges) {
  LOADEX_EXPECT(n >= 0, "pattern size must be non-negative");
  Pattern p;
  p.n_ = n;

  // Count both orientations of every off-diagonal entry per row ...
  p.ptr_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [i, j] : edges) {
    LOADEX_EXPECT(i >= 0 && i < n && j >= 0 && j < n,
                  "edge endpoint out of range");
    if (i == j) continue;
    ++p.ptr_[static_cast<std::size_t>(i) + 1];
    ++p.ptr_[static_cast<std::size_t>(j) + 1];
  }
  for (int i = 0; i < n; ++i)
    p.ptr_[static_cast<std::size_t>(i) + 1] +=
        p.ptr_[static_cast<std::size_t>(i)];

  // ... scatter them into their rows ...
  p.ind_.resize(static_cast<std::size_t>(p.ptr_.back()));
  std::vector<std::int64_t> next(p.ptr_.begin(), p.ptr_.end() - 1);
  for (const auto& [i, j] : edges) {
    if (i == j) continue;
    p.ind_[static_cast<std::size_t>(next[static_cast<std::size_t>(i)]++)] = j;
    p.ind_[static_cast<std::size_t>(next[static_cast<std::size_t>(j)]++)] = i;
  }
  // Free the input and the cursors: only the CSR needs to outlive the
  // scatter, and the input is as large as the rows themselves.
  edges = {};
  next = {};

  // ... then sort and deduplicate each row, compacting in place.
  std::size_t w = 0;
  std::size_t begin = 0;
  for (int i = 0; i < n; ++i) {
    const auto end =
        static_cast<std::size_t>(p.ptr_[static_cast<std::size_t>(i) + 1]);
    std::sort(p.ind_.begin() + static_cast<std::ptrdiff_t>(begin),
              p.ind_.begin() + static_cast<std::ptrdiff_t>(end));
    const std::size_t row_start = w;
    for (std::size_t k = begin; k < end; ++k)
      if (w == row_start || p.ind_[w - 1] != p.ind_[k]) p.ind_[w++] = p.ind_[k];
    p.ptr_[static_cast<std::size_t>(i) + 1] = static_cast<std::int64_t>(w);
    begin = end;
  }
  p.ind_.resize(w);
  p.ind_.shrink_to_fit();
  return p;
}

std::span<const int> Pattern::row(int i) const {
  LOADEX_EXPECT(i >= 0 && i < n_, "row index out of range");
  const auto begin =
      static_cast<std::size_t>(ptr_[static_cast<std::size_t>(i)]);
  const auto end =
      static_cast<std::size_t>(ptr_[static_cast<std::size_t>(i) + 1]);
  return {ind_.data() + begin, end - begin};
}

Pattern Pattern::permuted(const std::vector<int>& new_to_old) const {
  LOADEX_EXPECT(static_cast<int>(new_to_old.size()) == n_,
                "permutation size mismatch");
  LOADEX_EXPECT(isPermutation(new_to_old), "not a permutation");
  const std::vector<int> old_to_new = invertPermutation(new_to_old);
  Pattern p;
  p.n_ = n_;
  p.ptr_.resize(ptr_.size());
  p.ptr_[0] = 0;
  for (int i = 0; i < n_; ++i)
    p.ptr_[static_cast<std::size_t>(i) + 1] =
        p.ptr_[static_cast<std::size_t>(i)] +
        degree(new_to_old[static_cast<std::size_t>(i)]);
  // Each new row is the old row renamed, so it stays free of duplicates
  // and of the diagonal; the column scatter leaves it sorted.
  p.ind_ = scatterColumns(p.ptr_, [&](int c, auto put) {
    for (const int j : row(new_to_old[static_cast<std::size_t>(c)]))
      put(old_to_new[static_cast<std::size_t>(j)]);
  });
  return p;
}

Pattern Pattern::induced(const std::vector<int>& verts,
                         std::vector<int>& global_to_local) const {
  LOADEX_EXPECT(static_cast<int>(global_to_local.size()) == n_,
                "induced-subgraph scratch size mismatch");
  const int m = static_cast<int>(verts.size());
  for (int i = 0; i < m; ++i) {
    const int v = verts[static_cast<std::size_t>(i)];
    LOADEX_EXPECT(v >= 0 && v < n_ &&
                      global_to_local[static_cast<std::size_t>(v)] == -1,
                  "induced-subgraph vertex out of range or repeated");
    global_to_local[static_cast<std::size_t>(v)] = i;
  }
  Pattern p;
  p.n_ = m;
  p.ptr_.assign(static_cast<std::size_t>(m) + 1, 0);
  for (int i = 0; i < m; ++i) {
    std::int64_t d = 0;
    for (const int w : row(verts[static_cast<std::size_t>(i)]))
      d += global_to_local[static_cast<std::size_t>(w)] != -1;
    p.ptr_[static_cast<std::size_t>(i) + 1] =
        p.ptr_[static_cast<std::size_t>(i)] + d;
  }
  // The rows of this pattern are symmetric, deduplicated and loop-free, so
  // the kept entries are too; the column scatter leaves them sorted.
  p.ind_ = scatterColumns(p.ptr_, [&](int c, auto put) {
    for (const int w : row(verts[static_cast<std::size_t>(c)])) {
      const int lw = global_to_local[static_cast<std::size_t>(w)];
      if (lw != -1) put(lw);
    }
  });
  for (const int v : verts) global_to_local[static_cast<std::size_t>(v)] = -1;
  return p;
}

int Pattern::connectedComponents(std::vector<int>* labels) const {
  std::vector<int> lbl(static_cast<std::size_t>(n_), -1);
  int count = 0;
  std::vector<int> stack;
  for (int s = 0; s < n_; ++s) {
    if (lbl[static_cast<std::size_t>(s)] != -1) continue;
    stack.push_back(s);
    lbl[static_cast<std::size_t>(s)] = count;
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      for (const int w : row(v)) {
        if (lbl[static_cast<std::size_t>(w)] == -1) {
          lbl[static_cast<std::size_t>(w)] = count;
          stack.push_back(w);
        }
      }
    }
    ++count;
  }
  if (labels != nullptr) *labels = std::move(lbl);
  return count;
}

bool Pattern::hasEdge(int i, int j) const {
  const auto r = row(i);
  return std::binary_search(r.begin(), r.end(), j);
}

bool isPermutation(const std::vector<int>& p) {
  const int n = static_cast<int>(p.size());
  std::vector<bool> seen(p.size(), false);
  for (const int v : p) {
    if (v < 0 || v >= n || seen[static_cast<std::size_t>(v)]) return false;
    seen[static_cast<std::size_t>(v)] = true;
  }
  return true;
}

std::vector<int> invertPermutation(const std::vector<int>& p) {
  std::vector<int> inv(p.size());
  for (std::size_t i = 0; i < p.size(); ++i)
    inv[static_cast<std::size_t>(p[i])] = static_cast<int>(i);
  return inv;
}

std::vector<int> identityPermutation(int n) {
  std::vector<int> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  return p;
}

}  // namespace loadex::sparse
