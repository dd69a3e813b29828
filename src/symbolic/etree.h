// Elimination tree, postorder and factor column counts.
//
// All routines operate on the *graph form* pattern (symmetric adjacency,
// no diagonal) under a given ordering. The elimination tree is the core
// dependency structure of sparse factorization: column j's elimination
// must precede its parent's.
#pragma once

#include <cstdint>
#include <vector>

#include "sparse/pattern.h"

namespace loadex::symbolic {

/// Liu's elimination-tree algorithm with path compression.
/// parent[i] > i for non-roots, -1 for roots. O(nnz * alpha).
std::vector<int> eliminationTree(const sparse::Pattern& pattern);

/// Postorder of a forest given by parent[]. Children are visited in
/// increasing order, roots in increasing order; returns new->old.
std::vector<int> postorder(const std::vector<int>& parent);

/// Exact column counts of the Cholesky factor L (including the diagonal).
/// `parent` must be the elimination tree of `pattern`. Gilbert–Ng–Peyton
/// skeleton / least-common-ancestor counting (as CSparse's cs_counts):
/// O(nnz(A)·α(n)), independent of the fill.
std::vector<std::int64_t> columnCounts(const sparse::Pattern& pattern,
                                       const std::vector<int>& parent);

/// Height of each node above the deepest leaf of its subtree (tree depth
/// diagnostics).
int treeHeight(const std::vector<int>& parent);

}  // namespace loadex::symbolic
