// Micro-benchmarks of the symbolic pipeline (CSR construction, ordering,
// etree, counts, amalgamation) on 3-D grid problems. The argument picks
// the grid: 16 is the 16³ 7-point grid, 34 the 34³ 27-point grid that
// stands in for AUDIKW_1 in the paper suite.
#include <benchmark/benchmark.h>

#include <map>
#include <utility>
#include <vector>

#include "ordering/ordering.h"
#include "sparse/generators.h"
#include "symbolic/analysis.h"

using namespace loadex;

namespace {

/// One grid and every intermediate of its analysis, built once per side.
struct Fixture {
  sparse::Pattern grid;
  std::vector<std::pair<int, int>> edges;  ///< each undirected edge once
  std::vector<int> nd;                     ///< nested-dissection ordering
  sparse::Pattern permuted;                ///< grid under `nd`
  sparse::Pattern reordered;               ///< ... then postordered
  std::vector<int> parent;                 ///< etree of `reordered`
};

const Fixture& fixture(int side) {
  static std::map<int, Fixture> cache;
  auto [it, fresh] = cache.try_emplace(side);
  Fixture& f = it->second;
  if (fresh) {
    f.grid = side == 16 ? sparse::grid3d(16, 16, 16)
                        : sparse::grid3d(side, side, side, true);
    for (int i = 0; i < f.grid.n(); ++i)
      for (const int j : f.grid.row(i))
        if (j > i) f.edges.emplace_back(i, j);
    f.nd = ordering::nestedDissection(f.grid);
    f.permuted = f.grid.permuted(f.nd);
    const auto post =
        symbolic::postorder(symbolic::eliminationTree(f.permuted));
    f.reordered = f.permuted.permuted(post);
    f.parent = symbolic::eliminationTree(f.reordered);
  }
  return f;
}

void gridArgs(benchmark::internal::Benchmark* b) { b->Arg(16)->Arg(34); }

void BM_PatternFromEdges(benchmark::State& state) {
  const Fixture& f = fixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    auto edges = f.edges;
    state.ResumeTiming();
    auto p = sparse::Pattern::fromEdges(f.grid.n(), std::move(edges));
    benchmark::DoNotOptimize(p.ind().data());
  }
}
BENCHMARK(BM_PatternFromEdges)->Apply(gridArgs);

void BM_PatternPermuted(benchmark::State& state) {
  const Fixture& f = fixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto p = f.grid.permuted(f.nd);
    benchmark::DoNotOptimize(p.ind().data());
  }
}
BENCHMARK(BM_PatternPermuted)->Apply(gridArgs);

void BM_NestedDissection(benchmark::State& state) {
  const Fixture& f = fixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto perm = ordering::nestedDissection(f.grid);
    benchmark::DoNotOptimize(perm.data());
  }
}
BENCHMARK(BM_NestedDissection)->Apply(gridArgs);

void BM_Rcm(benchmark::State& state) {
  const Fixture& f = fixture(16);
  for (auto _ : state) {
    auto perm = ordering::reverseCuthillMcKee(f.grid);
    benchmark::DoNotOptimize(perm.data());
  }
}
BENCHMARK(BM_Rcm);

void BM_EliminationTree(benchmark::State& state) {
  const Fixture& f = fixture(16);
  for (auto _ : state) {
    auto parent = symbolic::eliminationTree(f.permuted);
    benchmark::DoNotOptimize(parent.data());
  }
}
BENCHMARK(BM_EliminationTree);

void BM_ColumnCounts(benchmark::State& state) {
  const Fixture& f = fixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto cc = symbolic::columnCounts(f.reordered, f.parent);
    benchmark::DoNotOptimize(cc.data());
  }
}
BENCHMARK(BM_ColumnCounts)->Apply(gridArgs);

void BM_FullAnalysis(benchmark::State& state) {
  const Fixture& f = fixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto a = symbolic::analyze(f.grid, ordering::nestedDissection(f.grid));
    benchmark::DoNotOptimize(a.factor_nnz);
  }
}
BENCHMARK(BM_FullAnalysis)->Apply(gridArgs);

}  // namespace
