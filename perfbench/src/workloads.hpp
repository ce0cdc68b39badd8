// The three benchmark workloads and the measurement plan around them.
//
//   fig10   the Fig 10 experiment (16 schemes x 9 Table 2 workloads, four
//           threads on shared caches) through the experiment registry,
//           emitted as `cvmt run fig10 --format=json` emits it;
//   table1  the Table 1 experiment (12 single-thread profiles, real and
//           perfect memory), the workload on which merge selection never
//           runs;
//   fuzz    a seeded generate_case + run_oracles campaign: thousands of
//           short simulations on random schemes and machines, cold
//           artifacts every case.
//
// A pass is one cold run of a workload from parameters to emitted bytes
// through the program's own entry point (`Experiment::run`, building its
// artifacts lazily, or `run_fuzz_sweep`), then the CLI's printout. Set-up
// (params plus cold builds of every artifact a pass builds) is sampled on
// its own. The untraced run repeats passes and set-up samples for the
// requested time and reports medians; the traced run alternates untraced
// and traced passes, then runs the layer replays and a testgen probe.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The seed at which fig10/table1 reproduce `cvmt run <id>` exactly and
/// fuzz reproduces `cvmt fuzz --seed=1`; committed digests are taken
/// there.
inline constexpr std::uint64_t kDefaultSeed = 1;
inline constexpr std::uint64_t kDefaultCases = 2000;

struct Options {
  std::string workload;  ///< fig10 | table1 | fuzz
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  unsigned workers = 0;        ///< set by run_benchmark: min(cores, 4)
  std::uint64_t budget = 0;    ///< instructions per thread; 0: default
  std::uint64_t cases = kDefaultCases;  ///< fuzz cases per pass
  /// The committed digests (perfbench/digests.json); empty: print only.
  /// The output digest covers the emitted bytes, the results digest the
  /// simulator counters of every job (fuzz: every case's baseline run).
  std::string digests_file;
  std::string trace_out;    ///< where the traced run writes its spans
  std::string dump_output;  ///< where to write the emitted bytes
  /// Test hook: marks the first fuzz case of every pass as an oracle
  /// failure, to prove failures reach the failure count.
  bool inject_oracle_failure = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::string output_digest;
  std::string results_digest;
  std::vector<std::string> problems;  ///< one line per detected failure
  std::vector<std::string> details;   ///< spreads behind the medians
};

/// Runs the benchmark `options` describe. Throws std::invalid_argument on
/// an unknown workload.
[[nodiscard]] Report run_benchmark(const Options& options);

}  // namespace perfbench
