// Outside-in replays of the simulator's inner layers. Each replays one
// simulation job through a layer's public functions alone and times them:
//
//   trace  TraceGenerator::advance over every software thread's stream,
//          seeded as the session layer seeds it, for the instruction count
//          the simulator ran;
//   mem    a MemorySystem of the job's configuration, fed the replayed
//          fetch PCs (fetch) and data addresses (data_access);
//   core   MergeEngine::select_mask_gathered (which enters
//          MergePlan::select_multi when two or more threads offer) over
//          offers gathered from the job's own TraceGenerators, one per
//          hardware slot.
//
// The mem replay doubles as a self-check: on a single-thread job the
// simulator fetches and accesses data in exactly the replayed order, so
// the replay must reproduce the SimResult cache counters bit for bit.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "sim/session.hpp"

namespace perfbench {

/// One simulation job as the replays see it.
struct ReplayJob {
  std::shared_ptr<const cvmt::CompiledScheme> scheme;
  std::vector<std::shared_ptr<const cvmt::SyntheticProgram>> programs;
  cvmt::SimConfig config;
  /// The simulator's own result of this job. Must outlive the replay.
  const cvmt::SimResult* result = nullptr;
};

/// Sums over the replayed jobs.
struct LayerTotals {
  double advance_s = 0;
  std::uint64_t advanced = 0;  ///< instructions replayed
  double fetch_s = 0;
  std::uint64_t fetches = 0;
  double data_s = 0;
  std::uint64_t data_accesses = 0;
  double select_s = 0;
  std::uint64_t decisions = 0;        ///< merge decisions replayed
  std::uint64_t multi_decisions = 0;  ///< of them, select_multi calls
  std::uint64_t select_checks = 0;    ///< merge-block checks they made
  /// The replayed caches' own counters. On multi-thread jobs they differ
  /// from the simulator's (the interleaving differs) and are only shown.
  cvmt::RatioCounter replay_icache;
  cvmt::RatioCounter replay_dcache;
  /// Single-thread jobs whose replayed cache counters were compared with
  /// the simulator's, and how many of them differed.
  std::uint64_t checked_jobs = 0;
  std::uint64_t mismatched_jobs = 0;
  std::string first_mismatch;

  void add(const LayerTotals& o);
};

/// Replays `job` through the trace, mem and core layers, recording one
/// span per layer under a "replay.job" span of run id `run`.
[[nodiscard]] LayerTotals replay_job(const ReplayJob& job, std::int64_t run,
                                     SpanRecorder* recorder);

}  // namespace perfbench
