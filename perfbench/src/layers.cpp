#include "layers.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <span>

#include "core/merge_engine.hpp"
#include "mem/memory_system.hpp"
#include "trace/trace_generator.hpp"

namespace perfbench {
namespace {

using cvmt::Footprint;
using cvmt::TraceGenerator;

/// Keeps a replay loop's result observable so the loop is not elided.
void keep(std::uint64_t value) {
  asm volatile("" : : "r"(value) : "memory");
}

/// The stream seed the session layer gives software thread `i`
/// (SimInstance::run).
std::uint64_t stream_seed(const cvmt::SimConfig& cfg, std::size_t i) {
  return cfg.stream_seed_base + 0x1000ULL * i;
}

/// The fetch and data-access streams of a job, software threads
/// interleaved one instruction at a time, each access tagged with the
/// hardware slot it is routed to.
struct MemStream {
  std::vector<std::uint64_t> pcs;
  std::vector<int> pc_slots;
  std::vector<std::uint64_t> addrs;
  std::vector<int> addr_slots;
};

MemStream record_stream(const ReplayJob& job, int slots) {
  MemStream out;
  std::vector<TraceGenerator> gens;
  std::vector<std::uint64_t> left;
  for (std::size_t i = 0; i < job.programs.size(); ++i) {
    gens.emplace_back(job.programs[i], stream_seed(job.config, i));
    left.push_back(job.result->threads[i].instructions);
  }
  out.pcs.reserve(job.result->total_instructions);
  out.pc_slots.reserve(job.result->total_instructions);
  bool any = true;
  while (any) {
    any = false;
    for (std::size_t i = 0; i < gens.size(); ++i) {
      if (left[i] == 0) continue;
      --left[i];
      any = true;
      const int slot = static_cast<int>(i) % slots;
      TraceGenerator& g = gens[i];
      g.advance();
      out.pcs.push_back(g.current_pc());
      out.pc_slots.push_back(slot);
      const cvmt::Instruction& in = g.current_instruction();
      for (const std::uint8_t idx : g.current_patches()) {
        const cvmt::Operation& op = in.op(idx);
        if (cvmt::is_memory(op.kind)) {
          out.addrs.push_back(op.addr);
          out.addr_slots.push_back(slot);
        }
      }
    }
  }
  return out;
}

bool same(const cvmt::RatioCounter& a, const cvmt::RatioCounter& b) {
  return a.hits == b.hits && a.total == b.total;
}

std::string counter_text(const cvmt::RatioCounter& c) {
  return std::to_string(c.hits) + "/" + std::to_string(c.total);
}

}  // namespace

void LayerTotals::add(const LayerTotals& o) {
  advance_s += o.advance_s;
  advanced += o.advanced;
  fetch_s += o.fetch_s;
  fetches += o.fetches;
  data_s += o.data_s;
  data_accesses += o.data_accesses;
  select_s += o.select_s;
  decisions += o.decisions;
  multi_decisions += o.multi_decisions;
  select_checks += o.select_checks;
  replay_icache.hits += o.replay_icache.hits;
  replay_icache.total += o.replay_icache.total;
  replay_dcache.hits += o.replay_dcache.hits;
  replay_dcache.total += o.replay_dcache.total;
  checked_jobs += o.checked_jobs;
  mismatched_jobs += o.mismatched_jobs;
  if (first_mismatch.empty()) first_mismatch = o.first_mismatch;
}

LayerTotals replay_job(const ReplayJob& job, std::int64_t run,
                       SpanRecorder* recorder) {
  LayerTotals t;
  const Span root(recorder, "replay.job", -1, run);
  const cvmt::SimConfig& cfg = job.config;
  const cvmt::SimResult& result = *job.result;
  const int slots = job.scheme->scheme().num_threads();

  // trace: regenerate every software thread's stream.
  {
    const Span span(recorder, "trace.advance");
    std::uint64_t sink = 0;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < job.programs.size(); ++i) {
      TraceGenerator g(job.programs[i], stream_seed(cfg, i));
      const std::uint64_t n = result.threads[i].instructions;
      for (std::uint64_t k = 0; k < n; ++k) {
        g.advance();
        sink += g.current_pc();
      }
      t.advanced += n;
    }
    t.advance_s = seconds_since(t0);
    keep(sink);
  }

  // mem: the replayed streams through a MemorySystem of the job's config.
  // The I- and D-side levels are separate caches, so feeding all fetches
  // and then all data accesses leaves each L1 with the counters of the
  // interleaved order.
  {
    MemStream stream;
    {
      const Span span(recorder, "replay.record");
      stream = record_stream(job, slots);
    }
    cvmt::MemorySystem mem(cfg.mem, slots);
    std::uint64_t sink = 0;
    {
      const Span span(recorder, "mem.fetch");
      const Clock::time_point t0 = Clock::now();
      for (std::size_t k = 0; k < stream.pcs.size(); ++k)
        sink += static_cast<std::uint64_t>(
            mem.fetch(stream.pc_slots[k], stream.pcs[k]).penalty_cycles);
      t.fetch_s = seconds_since(t0);
    }
    {
      const Span span(recorder, "mem.data_access");
      const Clock::time_point t0 = Clock::now();
      for (std::size_t k = 0; k < stream.addrs.size(); ++k)
        sink += static_cast<std::uint64_t>(
            mem.data_access(stream.addr_slots[k], stream.addrs[k])
                .penalty_cycles);
      t.data_s = seconds_since(t0);
    }
    keep(sink);
    t.fetches = stream.pcs.size();
    t.data_accesses = stream.addrs.size();
    t.replay_icache = mem.icache_stats();
    t.replay_dcache = mem.dcache_stats();
    if (job.programs.size() == 1) {
      ++t.checked_jobs;
      if (!same(mem.icache_stats(), result.icache) ||
          !same(mem.dcache_stats(), result.dcache)) {
        ++t.mismatched_jobs;
        t.first_mismatch =
            result.scheme + " " + result.threads[0].benchmark +
            ": replay icache " + counter_text(mem.icache_stats()) +
            " dcache " + counter_text(mem.dcache_stats()) +
            ", simulator icache " + counter_text(result.icache) +
            " dcache " + counter_text(result.dcache);
      }
    }
  }

  // core: the cycle loop's merge entry, MergeEngine::select_mask_gathered,
  // over offers from one generator per occupied hardware slot, every slot
  // always offering. A first engine's decisions pick which generators
  // advance; the recorded offer sets then replay, timed, into a fresh
  // engine (same rotation sequence) and into a full-stats one that counts
  // merge checks. With one offering slot every decision is a lone offer,
  // which never enters MergePlan::select_multi.
  const int offering =
      std::min(slots, static_cast<int>(job.programs.size()));
  const auto n = static_cast<std::size_t>(slots);
  const std::uint64_t cycles = std::min<std::uint64_t>(
      result.total_instructions, (std::uint64_t{1} << 20) / n);
  const auto make_engine = [&](cvmt::StatsLevel stats) {
    return std::make_unique<cvmt::MergeEngine>(
        job.scheme->scheme(), job.scheme->plan(), job.scheme->machine(),
        cfg.priority, stats, cvmt::EvalMode::kPlan);
  };
  std::vector<const Footprint*> offers(cycles * n, nullptr);
  {
    const Span span(recorder, "replay.gather");
    const auto engine = make_engine(cvmt::StatsLevel::kFast);
    std::vector<TraceGenerator> gens;
    gens.reserve(static_cast<std::size_t>(offering));
    std::vector<const Footprint*> cand(n, nullptr);
    for (int s = 0; s < offering; ++s) {
      gens.emplace_back(job.programs[static_cast<std::size_t>(s)],
                        stream_seed(cfg, static_cast<std::size_t>(s)));
      gens.back().advance();
      cand[static_cast<std::size_t>(s)] = &gens.back().current_footprint();
    }
    for (std::uint64_t c = 0; c < cycles; ++c) {
      std::copy(cand.begin(), cand.end(), offers.begin() + c * n);
      std::uint32_t mask = engine->select_mask_gathered(cand, offering, 0);
      while (mask != 0) {
        const int s = std::countr_zero(mask);
        mask &= mask - 1;
        gens[static_cast<std::size_t>(s)].advance();
        cand[static_cast<std::size_t>(s)] =
            &gens[static_cast<std::size_t>(s)].current_footprint();
      }
    }
  }
  const auto replay = [&](cvmt::MergeEngine& engine) {
    std::uint64_t sink = 0;
    for (std::uint64_t c = 0; c < cycles; ++c)
      sink += engine.select_mask_gathered(
          std::span<const Footprint* const>(offers.data() + c * n, n),
          offering, 0);
    return sink;
  };
  {
    const Span span(recorder, "core.select");
    const auto engine = make_engine(cvmt::StatsLevel::kFast);
    const Clock::time_point t0 = Clock::now();
    keep(replay(*engine));
    t.select_s = seconds_since(t0);
  }
  const auto counting = make_engine(cvmt::StatsLevel::kFull);
  (void)replay(*counting);
  for (const cvmt::MergeNodeStats& s : counting->node_stats())
    t.select_checks += s.attempts;
  t.decisions = cycles;
  t.multi_decisions = offering >= 2 ? cycles : 0;
  return t;
}

}  // namespace perfbench
