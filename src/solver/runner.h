// Experiment runner: one call runs a full simulated parallel factorization
// of a problem under a chosen mechanism / scheduling strategy and returns
// the metrics the paper's tables report.
#pragma once

#include <string>

#include "common/faults.h"
#include "core/mechanism.h"
#include "obs/results.h"
#include "obs/trace.h"
#include "ordering/ordering.h"
#include "sim/world.h"
#include "solver/factor_app.h"
#include "solver/mapping.h"
#include "solver/schedulers.h"
#include "sparse/generators.h"
#include "symbolic/analysis.h"

namespace loadex::solver {

struct SolverConfig {
  int nprocs = 32;
  core::MechanismKind mechanism = core::MechanismKind::kIncrement;
  core::MechanismConfig mech;
  Strategy strategy = Strategy::kWorkload;
  sim::NetworkConfig network;
  sim::ProcessConfig process;     ///< incl. the §4.5 comm-thread mode
  MappingOptions mapping;         ///< nprocs field is overwritten
  FactorAppOptions app;
  /// When true (default), the Update threshold is derived from the task
  /// granularity ("a threshold of the same order as the granularity of
  /// the tasks", §2.3): a fraction of the mean front cost.
  bool auto_threshold = true;
  double auto_threshold_fraction = 0.05;

  /// Heterogeneous platform (paper §4 remark): per-process speeds drawn
  /// uniformly from [1-h, 1+h] with a deterministic seed. 0 = homogeneous.
  double heterogeneity = 0.0;
  std::uint64_t heterogeneity_seed = 7;

  /// Scripted process-level faults (crash/pause/resume/restart at given
  /// times). Network-level faults live in `network.faults`.
  std::vector<ProcessFaultEvent> process_faults;

  // ---- observability (loadex_obs) --------------------------------------
  /// Trace recorder installed for the duration of the run (per-rank track
  /// names and the message namer are set up automatically). Null: keep
  /// whatever recorder an outer scope installed, or none. Tracing never
  /// perturbs the event schedule (checked by the determinism test).
  obs::TraceRecorder* trace = nullptr;
  /// Gauge sampling period in simulated seconds (per-rank active memory and
  /// state-queue depth); 0 disables sampling. Sampling piggybacks on the
  /// event kernel and schedules nothing.
  double metrics_sample_period_s = 0.0;
};

struct SolverResult {
  std::string problem;
  std::string mechanism;
  std::string strategy;
  int nprocs = 0;

  bool completed = false;
  double factor_time = 0.0;              ///< simulated seconds (Table 5/7)
  double peak_active_mem = 0.0;          ///< max-over-procs entries (Table 4)
  double avg_peak_active_mem = 0.0;
  std::int64_t state_messages = 0;       ///< Table 6
  Bytes state_bytes = 0;                 ///< payload bytes (sender-counted)
  /// Bytes actually put on the wire for the state channel, including the
  /// per-message header overhead and any fault-duplicated copies.
  Bytes state_wire_bytes = 0;
  std::int64_t app_messages = 0;
  int dynamic_decisions = 0;             ///< Table 3
  int selections_made = 0;

  // Snapshot-specific. snapshot_time is sourced from the loadex_obs stall
  // metrics the mechanism itself emits (accumulator family snapshot/stall).
  double snapshot_time = 0.0;            ///< max-over-procs frozen time
  double snapshot_stall_total = 0.0;     ///< summed over procs
  std::int64_t snapshots = 0;
  std::int64_t rearms = 0;

  // Stall/time breakdown of the run (where the simulated time went).
  double busy_max = 0.0;                 ///< max-over-procs compute time
  double paused_max = 0.0;               ///< max-over-procs task-paused time
  double msg_handle_total = 0.0;         ///< summed message-treatment cost

  double total_flops = 0.0;
  std::uint64_t sim_events = 0;
  std::int64_t tree_nodes = 0;
  /// Replay-determinism fingerprint of the event schedule (identical for
  /// identical configs, with or without observation installed).
  std::uint64_t schedule_digest = 0;

  // Conservation diagnostics (all ~0 for a correct run): leftover active
  // memory, leftover mechanism workload/memory metrics at quiescence, and
  // the factor entries accumulated across all processes.
  double residual_active_mem = 0.0;
  double residual_workload = 0.0;
  double residual_memory_metric = 0.0;
  Entries factor_entries_total = 0;

  // Fault-injection statistics (all zero on a clean run).
  std::int64_t messages_dropped = 0;
  std::int64_t messages_duplicated = 0;
  std::int64_t latency_spikes = 0;
  std::int64_t messages_lost_at_down_procs = 0;
  std::int64_t crashes = 0;
  // Hardened-protocol recovery statistics.
  std::int64_t gaps_detected = 0;
  std::int64_t retransmissions = 0;
  std::int64_t nacks_sent = 0;
  std::int64_t duplicates_dropped = 0;
  std::int64_t snapshot_timeouts = 0;
  std::int64_t partial_snapshots = 0;
  std::int64_t ranks_declared_dead = 0;
  int local_fallbacks = 0;  ///< type-2 nodes the master ran alone
};

/// Run a prepared symbolic analysis.
SolverResult runSolver(const symbolic::Analysis& analysis, bool symmetric,
                       const SolverConfig& config,
                       const std::string& problem_name = "");

/// Convenience: order (nested dissection by default) + analyze + run.
SolverResult runProblem(const sparse::Problem& problem,
                        const SolverConfig& config,
                        ordering::OrderingKind ordering =
                            ordering::OrderingKind::kNestedDissection);

/// Shared analysis cache-friendly variant: analyze once, run many configs.
symbolic::Analysis analyzeProblem(const sparse::Problem& problem,
                                  ordering::OrderingKind ordering =
                                      ordering::OrderingKind::kNestedDissection);

/// Flatten a SolverResult into the schema-versioned bench-result record
/// (obs::ResultWriter emits the JSON document; see DESIGN.md §9).
obs::BenchResultRecord toResultRecord(const SolverResult& res);

}  // namespace loadex::solver
