// One software thread: trace generator + architectural timing state.
//
// The context survives OS descheduling (paper §5.1 runs a multitasking
// environment with 1M-cycle timeslices): all position, stall and stat
// state lives here, and the core merely points at the contexts currently
// occupying hardware thread slots.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "isa/machine_config.hpp"
#include "mem/memory_system.hpp"
#include "trace/trace_generator.hpp"

namespace cvmt {

class FirstTouchIndex;
class TraceReplay;

/// How multiple DCache misses inside one issued packet are charged.
enum class MissPolicy : std::uint8_t {
  kSerialized,  ///< each miss blocks in turn (simple blocking LSU, default;
                ///< matches the profile calibration exactly)
  kOverlapped,  ///< misses overlap (per-cluster LSUs with MLP; ablation)
};

/// Per-thread execution statistics.
struct ThreadStats {
  std::uint64_t instructions = 0;  ///< issued VLIW instructions (w/ bubbles)
  std::uint64_t bubbles = 0;       ///< issued empty instructions
  std::uint64_t ops = 0;           ///< useful operations issued
  std::uint64_t taken_branches = 0;
  std::uint64_t dcache_stall_cycles = 0;
  std::uint64_t icache_stall_cycles = 0;
  std::uint64_t branch_stall_cycles = 0;
  /// Serialization cycles from same-packet accesses colliding on a DCache
  /// bank (always 0 on unbanked machines).
  std::uint64_t bank_conflict_cycles = 0;
};

/// A software thread executing one synthetic program.
class ThreadContext {
 public:
  ThreadContext(std::string name,
                std::shared_ptr<const SyntheticProgram> program,
                std::uint64_t stream_seed,
                std::uint64_t instruction_budget);

  // Not copyable: a pending instruction lives in this object's own
  // generator, and the replay/structural-fetch pointers are borrowed for
  // one run, so a copy would silently share the source's run state.
  // Contexts are shared by pointer (see OsScheduler), never by value.
  ThreadContext(const ThreadContext&) = delete;
  ThreadContext& operator=(const ThreadContext&) = delete;

  /// Rebinds this context to a fresh execution, bit-identical to
  /// constructing a new ThreadContext with the same arguments but reusing
  /// the string/cursor allocations. The session layer recycles contexts
  /// across runs on this guarantee.
  void reset(std::string_view name,
             std::shared_ptr<const SyntheticProgram> program,
             std::uint64_t stream_seed, std::uint64_t instruction_budget);

  /// Switches this context to replay a recorded stream instead of driving
  /// its own generator. `replay` must have been recorded from the same
  /// (program, stream_seed) this context was reset with, and must hold at
  /// least `instruction_budget` entries; the caller keeps it alive for the
  /// run. Cache fetches and data accesses still happen live — only the
  /// stream *content* comes from the recording, so the execution is
  /// bit-identical to the generator path. reset() clears replay mode.
  void set_replay(const TraceReplay* replay) {
    replay_ = replay;
    replay_pos_ = 0;
    first_touch_ = nullptr;
    icache_penalty_ = 0;
    structural_misses_ = 0;
  }

  /// Structurally-eviction-free fetch mode (batch engine, replay runs
  /// only): the caller has proven the shared ICache never evicts for this
  /// workload, so refill() charges `miss_penalty` exactly when the
  /// recording's first-touch bit is set instead of walking the cache —
  /// bit-identical timing, and the per-thread fetch/miss counts feed the
  /// harvested ICache stats (structural_fetches/structural_misses).
  /// Requires an active set_replay(); cleared by set_replay()/reset().
  void set_structural_fetch(const FirstTouchIndex* first_touch,
                            int miss_penalty) {
    first_touch_ = first_touch;
    icache_penalty_ = miss_penalty;
    structural_misses_ = 0;
  }

  /// Fetches performed so far on the replay path (one per refill).
  [[nodiscard]] std::uint64_t structural_fetches() const {
    return replay_pos_;
  }
  /// First-touch misses charged in structural fetch mode.
  [[nodiscard]] std::uint64_t structural_misses() const {
    return structural_misses_;
  }

  /// Offers this thread's next instruction for merging at `cycle`.
  /// Fetches (and charges ICache penalties) lazily; returns nullptr while
  /// the thread is stalled or has completed its budget. `hw_tid` routes
  /// cache accesses when caches are private. Inline: the overwhelmingly
  /// common case (an instruction already fetched, still stalled or ready)
  /// is two compares; the fetch lives out of line in refill().
  const Footprint* offer(std::uint64_t cycle, MemorySystem& mem,
                         int hw_tid) {
    if (done_) return nullptr;
    if (!has_pending_) refill(cycle, mem, hw_tid);
    return cycle >= ready_at_ ? pending_fp_ : nullptr;
  }

  /// Issues the previously offered instruction: accounts statistics,
  /// performs DCache accesses and computes the next-issue stall.
  void consume(std::uint64_t cycle, MemorySystem& mem, int hw_tid,
               const MachineConfig& machine, MissPolicy policy);

  /// Generates the next instruction and charges the ICache fetch at
  /// `cycle`. Exposed so the cycle loop can cache (ready_at, footprint)
  /// per slot and refill exactly once per issued instruction instead of
  /// re-polling offer() every cycle; offer() calls it lazily for all
  /// other callers. Precondition: !done() and !has_pending().
  void refill(std::uint64_t cycle, MemorySystem& mem, int hw_tid);

  /// Footprint of the pending instruction (valid while has_pending()).
  [[nodiscard]] const Footprint* pending_footprint() const {
    return pending_fp_;
  }

  /// True once `instruction_budget` instructions have issued.
  [[nodiscard]] bool done() const { return done_; }

  /// True while a fetched instruction is waiting to issue (offer() has been
  /// called since the last consume()).
  [[nodiscard]] bool has_pending() const { return has_pending_; }

  /// First cycle at which the pending instruction can issue. Meaningful
  /// only while has_pending(); the stall fast-forward uses it to jump over
  /// all-stalled windows without stepping them cycle by cycle.
  [[nodiscard]] std::uint64_t ready_at() const { return ready_at_; }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const ThreadStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t budget() const { return budget_; }

 private:
  std::string name_;
  TraceGenerator gen_;
  std::uint64_t budget_;

  /// Deferred generator rebind: reset() only records the target stream
  /// here and refill() arms the generator on first use. A replay-backed
  /// run never touches its generator, so the batch engine skips the
  /// stream-start work (RNG seeding, loop setup) entirely; on the
  /// generator path the same work happens at first refill instead of at
  /// reset — bit-identical either way, the stream is a pure function of
  /// (program, seed).
  std::shared_ptr<const SyntheticProgram> pending_program_;
  std::uint64_t pending_seed_ = 0;
  bool gen_stale_ = false;

  bool has_pending_ = false;
  bool done_ = false;
  /// Footprint of the pending instruction (into the shared immutable
  /// program). The rest of it — op count, data addresses, taken — stays in
  /// the generator (or the replay entry), untouched between refill() and
  /// consume().
  const Footprint* pending_fp_ = nullptr;
  std::uint64_t ready_at_ = 0;

  /// Replay mode (batch engine): recorded stream and the index of the
  /// next entry to fetch. Null on the classic generator path.
  const TraceReplay* replay_ = nullptr;
  std::uint64_t replay_pos_ = 0;
  /// Structural fetch mode (see set_structural_fetch); null = live cache.
  const FirstTouchIndex* first_touch_ = nullptr;
  int icache_penalty_ = 0;
  std::uint64_t structural_misses_ = 0;

  ThreadStats stats_;
};

}  // namespace cvmt
