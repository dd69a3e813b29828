// Sparse symmetric patterns in compressed (CSR-like) form.
//
// The solver pipeline only needs the *structure* of the matrix (the
// adjacency graph): orderings, elimination trees and front sizes are all
// structural. Patterns here are stored as sorted, deduplicated adjacency
// lists without the diagonal (graph form).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace loadex::sparse {

class Pattern {
 public:
  Pattern() = default;

  /// Build from (row, col) entries. Entries are symmetrized (both (i,j)
  /// and (j,i) are inserted), deduplicated, and diagonal entries dropped.
  /// Counting sort into rows, then a sort of each row: O(E + Σ d log d).
  static Pattern fromEdges(int n, std::vector<std::pair<int, int>> edges);

  int n() const { return n_; }

  /// Number of stored adjacency entries (2x the undirected edge count).
  std::int64_t adjCount() const {
    return static_cast<std::int64_t>(ind_.size());
  }

  /// Structural nonzeros of the symmetric matrix incl. diagonal:
  /// adjCount() + n (what a matrix-market header would report for the
  /// full symmetric pattern).
  std::int64_t nnzFull() const { return adjCount() + n_; }

  /// Neighbours of vertex i (sorted, no self-loop).
  std::span<const int> row(int i) const;

  int degree(int i) const {
    return static_cast<int>(ptr_[static_cast<std::size_t>(i) + 1] -
                            ptr_[static_cast<std::size_t>(i)]);
  }

  /// Symmetric permutation: vertex i of the result is vertex perm[i] of
  /// this pattern (perm is the new->old map).
  Pattern permuted(const std::vector<int>& new_to_old) const;

  /// Subgraph induced on `verts`: vertex i of the result is vertex
  /// verts[i] of this pattern. `global_to_local` is caller-owned scratch of
  /// size n() holding -1 everywhere; it is left that way on return.
  Pattern induced(const std::vector<int>& verts,
                  std::vector<int>& global_to_local) const;

  /// Connected components; fills labels[v] in [0, count).
  int connectedComponents(std::vector<int>* labels) const;

  bool hasEdge(int i, int j) const;

  const std::vector<std::int64_t>& ptr() const { return ptr_; }
  const std::vector<int>& ind() const { return ind_; }

 private:
  int n_ = 0;
  std::vector<std::int64_t> ptr_;
  std::vector<int> ind_;
};

/// Validate a permutation vector (a bijection on [0, n)).
bool isPermutation(const std::vector<int>& p);

/// Invert a permutation.
std::vector<int> invertPermutation(const std::vector<int>& p);

/// Identity permutation of size n.
std::vector<int> identityPermutation(int n);

}  // namespace loadex::sparse
