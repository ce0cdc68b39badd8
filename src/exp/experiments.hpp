// Experiment runners — one per table/figure of the paper's evaluation.
// Shared by the registered experiments (which print the rows through
// `cvmt run <id>`) and the integration tests (which assert the headline
// relations).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cost/scheme_cost.hpp"
#include "exp/batch_runner.hpp"
#include "sim/simulation.hpp"

namespace cvmt {

/// The CVMT_FAST=1 / --fast smoke-test scale, shared by env and CLI
/// resolution (see ExperimentParams in exp/params.hpp).
inline constexpr std::uint64_t kFastInstructionBudget = 60'000;
inline constexpr std::uint64_t kFastTimesliceCycles = 10'000;

/// Common configuration for all simulation-backed experiments.
struct ExperimentConfig {
  SimConfig sim;
  /// Fan-out options for the batch runner. from_env() fills workers from
  /// CVMT_WORKERS (0 = all hardware cores); results are identical for any
  /// worker count.
  BatchOptions batch;

  /// Builds defaults, honouring environment overrides:
  ///   CVMT_BUDGET    instructions per thread (default SimConfig's)
  ///   CVMT_TIMESLICE timeslice cycles
  ///   CVMT_FAST=1    small budgets for smoke tests
  ///   CVMT_WORKERS   batch-runner worker threads (default: all cores)
  ///   CVMT_STATS     full|fast merge statistics (default: fast — the
  ///                  experiment sweeps are pure-IPC; runners that *read*
  ///                  merge-node stats force kFull themselves)
  [[nodiscard]] static ExperimentConfig from_env();
};

// ---------------------------------------------------------------- Table 1
struct Table1Row {
  std::string name;
  char ilp = 'L';
  double paper_ipc_real = 0, paper_ipc_perfect = 0;
  double sim_ipc_real = 0, sim_ipc_perfect = 0;
};
/// Single-thread runs of each benchmark with real and perfect memory.
[[nodiscard]] std::vector<Table1Row> run_table1(const ExperimentConfig& cfg);

// ------------------------------------------------------------------ Fig 4
struct Fig4Row {
  std::string processor;  ///< "Single-thread", "2-Thread", "4-Thread"
  double avg_ipc = 0;
};
/// Average SMT IPC over the Table 2 workloads for 1/2/4 hardware threads.
[[nodiscard]] std::vector<Fig4Row> run_fig4(const ExperimentConfig& cfg);

// ------------------------------------------------------------------ Fig 5
struct Fig5Row {
  int threads = 0;
  Circuit csmt_serial, csmt_parallel, smt;
};
/// Merge-control cost sweep over thread count (no simulation involved).
[[nodiscard]] std::vector<Fig5Row> run_fig5(
    const MachineConfig& machine = MachineConfig::vex4x4(),
    int min_threads = 2, int max_threads = 8);

// ------------------------------------------------------------------ Fig 6
struct Fig6Row {
  std::string workload;
  double smt_ipc = 0, csmt_ipc = 0;
  double advantage_pct = 0;  ///< 100*(smt-csmt)/csmt
};
/// 4-thread SMT (3SSS) vs 4-thread CSMT (3CCC) per workload. A non-empty
/// `workloads` filter restricts the Table 2 rows.
[[nodiscard]] std::vector<Fig6Row> run_fig6(
    const ExperimentConfig& cfg,
    const std::vector<std::string>& workloads = {});

// ------------------------------------------------------------------ Fig 9
struct Fig9Row {
  std::string scheme;
  double gate_delay = 0;
  std::int64_t transistors = 0;
};
/// Merge-control cost of the 16 four-thread schemes (paper order).
[[nodiscard]] std::vector<Fig9Row> run_fig9(
    const MachineConfig& machine = MachineConfig::vex4x4());

// ----------------------------------------------------------------- Fig 10
struct Fig10Result {
  std::vector<std::string> schemes;    ///< column order (paper Fig 9 order)
  std::vector<std::string> workloads;  ///< row order (Table 2 order)
  /// ipc[w][s] for workload w, scheme s.
  std::vector<std::vector<double>> ipc;
  /// Per-scheme average over workloads (the paper's "Average" group).
  std::vector<double> average;

  [[nodiscard]] double ipc_of(std::string_view scheme,
                              std::string_view workload) const;
  [[nodiscard]] double average_of(std::string_view scheme) const;
};
/// Full 9-workload x 16-scheme performance matrix.
[[nodiscard]] Fig10Result run_fig10(const ExperimentConfig& cfg);

/// Filtered Fig 10 grid: empty `schemes` / `workloads` mean the full
/// paper sets (scheme names are parsed with Scheme::parse; workload names
/// must be Table 2 ILP combos). Used by the registry's --schemes and
/// --workloads knobs.
[[nodiscard]] Fig10Result run_fig10(
    const ExperimentConfig& cfg, const std::vector<std::string>& schemes,
    const std::vector<std::string>& workloads);

// ------------------------------------------------------------- Fig 11/12
struct ParetoPoint {
  std::string scheme;
  double avg_ipc = 0;
  std::int64_t transistors = 0;
  double gate_delay = 0;
};
/// Performance vs cost scatter (combines Fig 10 averages with Fig 9 cost).
[[nodiscard]] std::vector<ParetoPoint> pareto_points(
    const Fig10Result& fig10, const MachineConfig& machine);

/// The headline comparisons of the paper's conclusion, derived from Fig 10:
/// 2SC3 vs 3CCC (+14% in the paper), vs 1S (+45%), vs 3SSS (-11%).
struct HeadlineRelations {
  double sc3_vs_csmt_pct = 0;
  double sc3_vs_1s_pct = 0;
  double sc3_vs_smt4_pct = 0;  ///< negative: below 4-thread SMT
  double smt4_vs_1s_pct = 0;   ///< Fig 4's 2->4 thread gain (+61%)
};
[[nodiscard]] HeadlineRelations headline_relations(const Fig10Result& f);

}  // namespace cvmt
