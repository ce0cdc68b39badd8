#include "sim/thread_context.hpp"

#include <algorithm>
#include <span>

#include "trace/trace_replay.hpp"

namespace cvmt {

ThreadContext::ThreadContext(std::string name,
                             std::shared_ptr<const SyntheticProgram> program,
                             std::uint64_t stream_seed,
                             std::uint64_t instruction_budget)
    : name_(std::move(name)),
      gen_(std::move(program), stream_seed),
      budget_(instruction_budget) {
  CVMT_CHECK(budget_ >= 1);
}

void ThreadContext::reset(std::string_view name,
                          std::shared_ptr<const SyntheticProgram> program,
                          std::uint64_t stream_seed,
                          std::uint64_t instruction_budget) {
  name_.assign(name);
  pending_program_ = std::move(program);
  pending_seed_ = stream_seed;
  gen_stale_ = true;
  budget_ = instruction_budget;
  CVMT_CHECK(budget_ >= 1);
  has_pending_ = false;
  done_ = false;
  pending_fp_ = nullptr;
  ready_at_ = 0;
  stats_ = ThreadStats{};
  replay_ = nullptr;
  replay_pos_ = 0;
  first_touch_ = nullptr;
  icache_penalty_ = 0;
  structural_misses_ = 0;
}

void ThreadContext::refill(std::uint64_t cycle, MemorySystem& mem,
                           int hw_tid) {
  std::uint64_t pc;
  if (replay_ != nullptr) {
    // The stream content comes from the recording; the fetch below stays
    // live (hits depend on the cross-thread interleaving) — unless the
    // batch proved the ICache structurally eviction free, in which case
    // hit/miss is the recording's precomputed first-touch bit and the
    // cache walk is skipped entirely (its only effect was unobservable
    // LRU/tag state).
    CVMT_CHECK_MSG(replay_pos_ < replay_->recorded(),
                   "replay recording shorter than the thread's budget");
    const std::uint64_t pos = replay_pos_++;
    const TraceReplay::Entry& e = replay_->entry(pos);
    pending_fp_ = e.fp;
    if (first_touch_ != nullptr) {
      has_pending_ = true;
      if (first_touch_->miss(pos)) {
        ready_at_ = std::max(ready_at_, cycle) +
                    static_cast<std::uint64_t>(icache_penalty_);
        stats_.icache_stall_cycles +=
            static_cast<std::uint64_t>(icache_penalty_);
        ++structural_misses_;
      }
      return;
    }
    pc = e.pc;
  } else {
    if (gen_stale_) {
      gen_.reset(std::move(pending_program_), pending_seed_);
      gen_stale_ = false;
    }
    gen_.advance();
    pending_fp_ = &gen_.current_footprint();
    pc = gen_.current_pc();
  }
  has_pending_ = true;
  // Fetch starts once the previous instruction's stalls resolve; an
  // ICache miss then delays issue further.
  const MemAccessResult fetch = mem.fetch(hw_tid, pc);
  if (!fetch.hit) {
    ready_at_ = std::max(ready_at_, cycle) +
                static_cast<std::uint64_t>(fetch.penalty_cycles);
    stats_.icache_stall_cycles +=
        static_cast<std::uint64_t>(fetch.penalty_cycles);
  }
}

void ThreadContext::consume(std::uint64_t cycle, MemorySystem& mem,
                            int hw_tid, const MachineConfig& machine,
                            MissPolicy policy) {
  CVMT_CHECK_MSG(has_pending_ && cycle >= ready_at_,
                 "consume without a ready offer");
  // Execution stalls: taken-branch squash plus DCache misses. Only the
  // memory ops (their addresses, in op order) and the branch outcome are
  // timing-relevant; the generator's emission and the replay entry both
  // hold exactly those, so the data accesses below are identical either
  // way.
  std::uint64_t op_count;
  std::span<const std::uint64_t> addrs;
  bool taken;
  if (replay_ != nullptr) {
    const TraceReplay::Entry& e = replay_->entry(replay_pos_ - 1);
    op_count = e.op_count;
    addrs = {replay_->mem_addrs(e), e.mem_count};
    taken = e.taken;
  } else {
    op_count = gen_.current_record().op_count;
    addrs = gen_.current_mem_addrs();
    taken = gen_.current_taken();
  }
  ++stats_.instructions;
  stats_.ops += op_count;
  if (op_count == 0) ++stats_.bubbles;

  std::uint64_t stall = 1;
  int dmiss_total = 0;
  int dmiss_max = 0;
  const bool banked = mem.config().dcache_banks > 1;
  std::uint32_t banks_touched = 0;
  int bank_conflicts = 0;
  for (const std::uint64_t addr : addrs) {
    const MemAccessResult r = mem.data_access(hw_tid, addr);
    dmiss_total += r.penalty_cycles;
    dmiss_max = std::max(dmiss_max, r.penalty_cycles);
    if (banked) {
      // Same-packet accesses to one bank serialize: each repeat pays the
      // conflict penalty (the first access per bank is free).
      const std::uint32_t bit = 1u << r.bank;
      if ((banks_touched & bit) != 0) ++bank_conflicts;
      banks_touched |= bit;
    }
  }
  if (bank_conflicts > 0) {
    const int extra =
        bank_conflicts * mem.config().bank_conflict_penalty;
    stall += static_cast<std::uint64_t>(extra);
    stats_.bank_conflict_cycles += static_cast<std::uint64_t>(extra);
  }
  const int dmiss =
      policy == MissPolicy::kSerialized ? dmiss_total : dmiss_max;
  stall += static_cast<std::uint64_t>(dmiss);
  stats_.dcache_stall_cycles += static_cast<std::uint64_t>(dmiss);
  if (taken) {
    ++stats_.taken_branches;
    stall += static_cast<std::uint64_t>(machine.taken_branch_penalty);
    stats_.branch_stall_cycles +=
        static_cast<std::uint64_t>(machine.taken_branch_penalty);
  }
  ready_at_ = cycle + stall;
  has_pending_ = false;
  if (stats_.instructions >= budget_) done_ = true;
}

}  // namespace cvmt
