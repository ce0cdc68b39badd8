// Resumable, deterministic dynamic instruction stream over a
// SyntheticProgram.
//
// One TraceGenerator is one software thread's execution: it walks loop
// entries (uniformly random loop, geometric trip count), emits the body
// templates with per-execution patches (memory addresses, mid-branch
// directions) written beside each template's cached EmitRecord, and keeps
// its whole state in the object so the OS scheduler can
// deschedule/reschedule it at will. Copying the generator snapshots
// the execution — the simulator's determinism tests rely on this.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "isa/footprint.hpp"
#include "support/rng.hpp"
#include "trace/synthetic_program.hpp"

namespace cvmt {

class TraceGenerator {
 public:
  /// `stream_seed` decorrelates this execution from other instances of the
  /// same program (it also derives the address-space salt that keeps
  /// different software threads from aliasing in shared caches).
  TraceGenerator(std::shared_ptr<const SyntheticProgram> program,
                 std::uint64_t stream_seed);

  /// Rewinds to the start of a fresh execution of `program` under
  /// `stream_seed`, bit-identical to constructing a new generator with the
  /// same arguments but reusing the per-loop cursor arrays. The session
  /// layer resets thread contexts across runs on this guarantee.
  void reset(std::shared_ptr<const SyntheticProgram> program,
             std::uint64_t stream_seed);

  /// Emits the next dynamic VLIW instruction: advance() plus
  /// current_instruction(). The reference stays valid until the next call.
  /// Never ends (programs loop forever); the caller decides the
  /// instruction budget.
  const Instruction& next();

  /// Hot-path variant of next(): advances the stream and writes only the
  /// per-execution part of the instruction — salted PC, data addresses and
  /// branch directions — beside the program's cached EmitRecord. Read the
  /// result via current_pc()/current_mem_addrs()/current_taken()/...
  void advance();

  /// The full instruction advance() emitted (salted PC, patched addresses
  /// and directions), built from the template on first call after each
  /// advance(). Off the hot path; valid until the next advance(). The
  /// first call writes the generator's cached copy, so concurrent callers
  /// on one generator need their own synchronisation.
  [[nodiscard]] const Instruction& current_instruction() const;

  /// Cached template record of the current instruction (op count, patch
  /// layout). Points into the shared immutable program.
  [[nodiscard]] const SyntheticProgram::EmitRecord& current_record() const {
    return *cur_rec_;
  }
  /// Salted PC of the current instruction.
  [[nodiscard]] std::uint64_t current_pc() const { return cur_pc_; }
  /// Data addresses of the current instruction's memory ops, in op order.
  [[nodiscard]] std::span<const std::uint64_t> current_mem_addrs() const {
    return {cur_addrs_.data(), cur_rec_->mem_count};
  }
  /// True iff any branch of the current instruction is taken.
  [[nodiscard]] bool current_taken() const { return cur_taken_ != 0; }

  /// Footprint of the most recently emitted instruction (cached template
  /// footprint; patches never change placement). Points into the shared
  /// immutable program — stable until the program itself goes away.
  [[nodiscard]] const Footprint& current_footprint() const {
    return *cur_fp_;
  }

  /// Op indices of the current instruction's patched ops (memory and
  /// branch), in op order — the positions current_instruction() patches.
  /// Computed from the template; for tools, not the hot path.
  [[nodiscard]] InlineVec<std::uint8_t, kMaxTotalOps> current_patches()
      const;

  [[nodiscard]] std::uint64_t instructions_emitted() const {
    return emitted_;
  }
  [[nodiscard]] const SyntheticProgram& program() const { return *program_; }

  /// The address-space offset this execution adds to every PC and data
  /// address (models separate address spaces in shared caches). Tools can
  /// subtract it to map addresses back to the program's regions.
  [[nodiscard]] std::uint64_t address_salt() const { return address_salt_; }

  /// The salt a stream started with `stream_seed` would use, without
  /// constructing a generator. Static analyses (the batch engine's
  /// structurally-eviction-free ICache detection) enumerate a thread's
  /// fetch lines as {template pc + salt}; this keeps their salt derivation
  /// and start_stream()'s one definition.
  [[nodiscard]] static std::uint64_t salt_for_seed(std::uint64_t stream_seed);

 private:
  void enter_next_loop();
  /// Shared tail of construction and reset(): seeds the RNG and salt,
  /// rewinds every cursor, and enters the first loop.
  void start_stream(std::uint64_t stream_seed);

  std::shared_ptr<const SyntheticProgram> program_;
  Xoshiro256 rng_;
  std::uint64_t address_salt_ = 0;

  std::size_t loop_idx_ = 0;
  std::uint64_t trips_left_ = 0;
  std::size_t body_pos_ = 0;

  /// Per-loop persistent walk state (streams continue across re-entries).
  /// The hot cursor is kept already reduced modulo the loop's hot window
  /// (with the stride pre-reduced too), so the per-access address needs a
  /// compare-subtract instead of a 64-bit modulo.
  struct LoopCursor {
    std::uint64_t hot = 0;
    std::uint64_t hot_stride_mod = 0;
    std::uint64_t cold = 0;
  };
  std::vector<LoopCursor> cursors_;

  /// The current instruction: pointers into program_ (immutable, shared,
  /// so generator copies — snapshots — keep them valid) plus what
  /// advance() wrote for this execution. Bit k of cur_taken_ is the
  /// direction of patch k (branches only).
  const SyntheticProgram::EmitRecord* cur_rec_ = nullptr;
  const Footprint* cur_fp_ = nullptr;
  const Instruction* cur_tmpl_ = nullptr;
  std::uint64_t cur_pc_ = 0;
  std::uint32_t cur_taken_ = 0;
  std::array<std::uint64_t, kMaxTotalOps> cur_addrs_{};

  /// current_instruction()'s lazily built copy of the template.
  mutable Instruction scratch_;
  mutable bool scratch_valid_ = false;
  std::uint64_t emitted_ = 0;
};

}  // namespace cvmt
