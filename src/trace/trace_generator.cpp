#include "trace/trace_generator.hpp"

namespace cvmt {
namespace {
/// Cold streams advance one line per access (guaranteed compulsory miss)
/// and wrap after 64MB — long evicted by then.
constexpr std::uint64_t kColdLineBytes = 64;
constexpr std::uint64_t kColdWrapBytes = 64ULL << 20;
}  // namespace

TraceGenerator::TraceGenerator(
    std::shared_ptr<const SyntheticProgram> program,
    std::uint64_t stream_seed)
    : program_(std::move(program)),
      rng_(SplitMix64(stream_seed ^ 0xabcdef12345ULL).next()) {
  CVMT_CHECK(program_ != nullptr);
  start_stream(stream_seed);
}

void TraceGenerator::reset(std::shared_ptr<const SyntheticProgram> program,
                           std::uint64_t stream_seed) {
  CVMT_CHECK(program != nullptr);
  program_ = std::move(program);
  rng_ = Xoshiro256(SplitMix64(stream_seed ^ 0xabcdef12345ULL).next());
  start_stream(stream_seed);
}

void TraceGenerator::start_stream(std::uint64_t stream_seed) {
  // 1MB-granular address-space salt: keeps threads disjoint in shared
  // caches while preserving intra-thread set behaviour.
  SplitMix64 sm(stream_seed);
  address_salt_ = (sm.next() % 2048) * 0x100000ULL;
  const std::size_t n = program_->loops().size();
  cursors_.assign(n, LoopCursor{});
  for (std::size_t l = 0; l < n; ++l)
    cursors_[l].hot_stride_mod =
        program_->profile().hot_stride % program_->loops()[l].hot_window;
  cur_rec_ = nullptr;
  cur_fp_ = nullptr;
  cur_tmpl_ = nullptr;
  cur_pc_ = 0;
  cur_taken_ = 0;
  scratch_valid_ = false;
  emitted_ = 0;
  enter_next_loop();
}

void TraceGenerator::enter_next_loop() {
  const auto& loops = program_->loops();
  loop_idx_ = rng_.next_below(loops.size());
  trips_left_ = rng_.next_trip_count(loops[loop_idx_].mean_trips);
  body_pos_ = 0;
}

void TraceGenerator::advance() {
  const SyntheticProgram::Loop& loop = program_->loops()[loop_idx_];
  const SyntheticProgram::EmitRecord& rec = loop.records[body_pos_];

  cur_rec_ = &rec;
  cur_fp_ = &loop.footprints[body_pos_];
  cur_tmpl_ = &loop.body[body_pos_];
  cur_pc_ = rec.pc + address_salt_;
  cur_taken_ = 0;
  scratch_valid_ = false;

  // Only memory and branch ops are patched per execution, in op order (so
  // RNG draws are reproducible); the record says which is which.
  const bool is_last = body_pos_ + 1 == loop.body.size();
  LoopCursor& cur = cursors_[loop_idx_];
  std::uint64_t* addr = cur_addrs_.data();
  for (unsigned k = 0; k < rec.patch_count; ++k) {
    if ((rec.mem_mask >> k) & 1u) {
      if (rng_.next_bool(loop.miss_frac)) {
        *addr++ = loop.cold_base + address_salt_ + cur.cold;
        cur.cold = (cur.cold + kColdLineBytes) % kColdWrapBytes;
      } else {
        // cur.hot is maintained in [0, hot_window): same addresses as the
        // raw-cursor modulo, without the division.
        *addr++ = loop.hot_base + address_salt_ + cur.hot;
        cur.hot += cur.hot_stride_mod;
        if (cur.hot >= loop.hot_window) cur.hot -= loop.hot_window;
      }
    } else if (is_last ||
               rng_.next_bool(program_->profile().mid_branch_taken)) {
      // The loop-closing branch is always taken (back edge or exit
      // jump); mid-body branches resolve randomly.
      cur_taken_ |= 1u << k;
    }
  }

  ++emitted_;
  if (is_last) {
    body_pos_ = 0;
    if (--trips_left_ == 0) enter_next_loop();
  } else {
    ++body_pos_;
  }
}

const Instruction& TraceGenerator::next() {
  advance();
  return current_instruction();
}

const Instruction& TraceGenerator::current_instruction() const {
  if (!scratch_valid_) {
    scratch_ = *cur_tmpl_;
    scratch_.set_pc(cur_pc_);
    unsigned k = 0;
    std::size_t m = 0;
    for (std::size_t i = 0; i < scratch_.op_count(); ++i) {
      Operation& op = scratch_.op(i);
      if (is_memory(op.kind)) {
        op.addr = cur_addrs_[m++];
      } else if (op.kind == OpKind::kBranch) {
        op.taken = ((cur_taken_ >> k) & 1u) != 0;
      } else {
        continue;
      }
      ++k;
    }
    scratch_valid_ = true;
  }
  return scratch_;
}

InlineVec<std::uint8_t, kMaxTotalOps> TraceGenerator::current_patches()
    const {
  InlineVec<std::uint8_t, kMaxTotalOps> patches;
  for (std::size_t i = 0; i < cur_tmpl_->op_count(); ++i) {
    const OpKind kind = cur_tmpl_->op(i).kind;
    if (is_memory(kind) || kind == OpKind::kBranch)
      patches.push_back(static_cast<std::uint8_t>(i));
  }
  return patches;
}

}  // namespace cvmt
