#include "trace/trace_replay.hpp"

namespace cvmt {

void TraceReplay::ensure(std::uint64_t count) {
  while (entries_.size() < count) {
    gen_.advance();
    // The generator's emission is exactly what the live issue path reads
    // (ThreadContext::consume): record it as is.
    const SyntheticProgram::EmitRecord& rec = gen_.current_record();
    const std::span<const std::uint64_t> addrs = gen_.current_mem_addrs();
    Entry e;
    e.fp = &gen_.current_footprint();
    e.pc = gen_.current_pc();
    e.mem_begin = static_cast<std::uint32_t>(addrs_.size());
    e.mem_count = rec.mem_count;
    e.op_count = rec.op_count;
    e.empty = rec.op_count == 0;
    e.taken = gen_.current_taken();
    addrs_.insert(addrs_.end(), addrs.begin(), addrs.end());
    entries_.push_back(e);
  }
}

const FirstTouchIndex& TraceReplay::first_touch(std::uint32_t line_shift,
                                                std::uint64_t count) {
  ensure(count);
  FirstTouchIndex* index = nullptr;
  for (const auto& ft : first_touch_)
    if (ft->line_shift() == line_shift) index = ft.get();
  if (index == nullptr) {
    first_touch_.push_back(std::unique_ptr<FirstTouchIndex>(
        new FirstTouchIndex(line_shift)));
    index = first_touch_.back().get();
  }
  const std::uint64_t end = entries_.size();
  if (index->covered_ < end) {
    index->bits_.resize(static_cast<std::size_t>((end + 63) / 64), 0);
    for (std::uint64_t i = index->covered_; i < end; ++i) {
      const std::uint64_t line = entries_[i].pc >> line_shift;
      if (index->seen_.insert(line).second)
        index->bits_[i >> 6] |= std::uint64_t{1} << (i & 63);
    }
    index->covered_ = end;
  }
  return *index;
}

}  // namespace cvmt
