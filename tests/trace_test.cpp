// Tests of the synthetic-program builder and the trace generator:
// structural validity, determinism, resumability and statistical shape.
#include <gtest/gtest.h>

#include <bit>
#include <future>
#include <ostream>
#include <map>
#include <string>
#include <vector>

#include "support/stats.hpp"
#include "testgen/generators.hpp"
#include "trace/benchmark_suite.hpp"
#include "trace/trace_generator.hpp"
#include "trace/vex_asm.hpp"

namespace cvmt {
namespace {

const MachineConfig kM = MachineConfig::vex4x4();

std::shared_ptr<const SyntheticProgram> make_program(const char* name) {
  return std::make_shared<const SyntheticProgram>(profile_by_name(name), kM);
}

TEST(BenchmarkSuite, TwelveProfilesInTableOrder) {
  const auto& t = table1_profiles();
  ASSERT_EQ(t.size(), 12u);
  EXPECT_EQ(t.front().name, "mcf");
  EXPECT_EQ(t.back().name, "colorspace");
  int low = 0, med = 0, high = 0;
  for (const auto& p : t) {
    switch (p.ilp) {
      case IlpDegree::kLow: ++low; break;
      case IlpDegree::kMedium: ++med; break;
      case IlpDegree::kHigh: ++high; break;
    }
    EXPECT_NO_THROW(p.validate());
  }
  // Table 1: four benchmarks in each ILP class.
  EXPECT_EQ(low, 4);
  EXPECT_EQ(med, 4);
  EXPECT_EQ(high, 4);
}

TEST(BenchmarkSuite, ProfileTargetsMatchTable1) {
  EXPECT_DOUBLE_EQ(profile_by_name("mcf").target_ipc_real, 0.96);
  EXPECT_DOUBLE_EQ(profile_by_name("mcf").target_ipc_perfect, 1.34);
  EXPECT_DOUBLE_EQ(profile_by_name("colorspace").target_ipc_perfect, 8.88);
  EXPECT_DOUBLE_EQ(profile_by_name("gsmencode").target_ipc_real, 1.07);
  EXPECT_THROW((void)profile_by_name("quake"), CheckError);
}

TEST(BenchmarkSuite, NineWorkloadsMatchTable2) {
  const auto& w = table2_workloads();
  ASSERT_EQ(w.size(), 9u);
  EXPECT_EQ(w[0].ilp_combo, "LLLL");
  EXPECT_EQ(w[5].ilp_combo, "LLHH");
  EXPECT_EQ(w[5].benchmarks[2], "x264");
  EXPECT_EQ(w[8].ilp_combo, "HHHH");
  // Every workload's ILP string matches its benchmarks' classes.
  for (const Workload& wl : w)
    for (int t = 0; t < 4; ++t)
      EXPECT_EQ(wl.ilp_combo[static_cast<std::size_t>(t)],
                to_char(profile_by_name(wl.benchmarks[
                    static_cast<std::size_t>(t)]).ilp))
          << wl.ilp_combo << " thread " << t;
}

TEST(ProgramLibrary, CachesAndLooksUp) {
  ProgramLibrary lib(kM);
  const auto a = lib.get("mcf");
  const auto b = lib.get("mcf");
  EXPECT_EQ(a.get(), b.get());  // shared
  EXPECT_THROW((void)lib.lookup("idct"), CheckError);
  lib.build_all();
  EXPECT_NO_THROW((void)lib.lookup("idct"));
}

TEST(ProgramLibrary, ConcurrentGetIsSafeAndBuildsOnce) {
  // Regression for the batch-runner scenario: many workers hammer one
  // library with get() on a cold cache. Every caller must receive the
  // same shared program per name (one build, no torn map state). Run a
  // few rounds so the cold-start race is actually exercised.
  for (int round = 0; round < 3; ++round) {
    ProgramLibrary lib(kM);
    constexpr int kThreads = 8;
    const std::vector<std::string> names = {"mcf", "idct", "x264",
                                            "colorspace"};
    std::vector<std::future<std::vector<const SyntheticProgram*>>> futs;
    for (int t = 0; t < kThreads; ++t)
      futs.push_back(std::async(std::launch::async, [&lib, &names, t] {
        std::vector<const SyntheticProgram*> got;
        // Stagger the request order per thread to vary the interleaving.
        for (std::size_t i = 0; i < names.size(); ++i)
          got.push_back(
              lib.get(names[(i + static_cast<std::size_t>(t)) %
                            names.size()])
                  .get());
        return got;
      }));
    std::vector<std::vector<const SyntheticProgram*>> all;
    for (auto& f : futs) all.push_back(f.get());
    for (std::size_t i = 0; i < names.size(); ++i) {
      const SyntheticProgram* expected = lib.get(names[i]).get();
      for (int t = 0; t < kThreads; ++t) {
        const std::size_t slot =
            (names.size() - static_cast<std::size_t>(t) % names.size() + i) %
            names.size();
        EXPECT_EQ(all[static_cast<std::size_t>(t)][slot], expected)
            << names[i];
      }
    }
  }
}

TEST(TraceGenerator, ResetReplaysBitIdentically) {
  const auto prog = make_program("mcf");
  TraceGenerator gen(prog, 42);
  std::vector<std::uint64_t> pcs;
  for (int i = 0; i < 500; ++i) {
    gen.advance();
    pcs.push_back(gen.current_pc());
  }
  // Same program + seed: the stream replays exactly.
  gen.reset(prog, 42);
  for (int i = 0; i < 500; ++i) {
    gen.advance();
    ASSERT_EQ(gen.current_pc(), pcs[static_cast<std::size_t>(i)]) << i;
  }
  // Reset onto a different program/seed matches a fresh generator.
  const auto other = make_program("idct");
  gen.reset(other, 7);
  TraceGenerator fresh(other, 7);
  EXPECT_EQ(gen.address_salt(), fresh.address_salt());
  for (int i = 0; i < 500; ++i) {
    gen.advance();
    fresh.advance();
    ASSERT_EQ(gen.current_pc(), fresh.current_pc()) << i;
    ASSERT_EQ(&gen.current_footprint(), &fresh.current_footprint()) << i;
  }
}

TEST(SyntheticProgram, EveryTemplateInstructionIsValid) {
  for (const BenchmarkProfile& p : table1_profiles()) {
    const SyntheticProgram prog(p, kM);
    ASSERT_EQ(static_cast<int>(prog.loops().size()), p.num_loops);
    for (const auto& loop : prog.loops()) {
      EXPECT_GE(loop.real_instrs, 2);
      for (const Instruction& instr : loop.body)
        EXPECT_EQ(instr.validate(kM), "") << p.name;
    }
  }
}

TEST(SyntheticProgram, LoopsEndWithABranch) {
  const auto prog = make_program("gsmencode");
  for (const auto& loop : prog->loops()) {
    const Instruction& last = loop.body.back();
    bool has_branch = false;
    for (const Operation& op : last)
      has_branch |= op.kind == OpKind::kBranch;
    EXPECT_TRUE(has_branch);
  }
}

TEST(SyntheticProgram, FootprintCacheMatchesBodies) {
  const auto prog = make_program("djpeg");
  for (const auto& loop : prog->loops()) {
    ASSERT_EQ(loop.footprints.size(), loop.body.size());
    for (std::size_t i = 0; i < loop.body.size(); ++i)
      EXPECT_TRUE(loop.footprints[i] == Footprint::of(loop.body[i], kM));
  }
}

TEST(SyntheticProgram, EmitRecordsDescribeBodies) {
  for (const BenchmarkProfile& profile : table1_profiles()) {
    const SyntheticProgram prog(profile, kM);
    for (const auto& loop : prog.loops()) {
      ASSERT_EQ(loop.records.size(), loop.body.size());
      for (std::size_t i = 0; i < loop.body.size(); ++i) {
        const Instruction& instr = loop.body[i];
        const SyntheticProgram::EmitRecord& rec = loop.records[i];
        EXPECT_EQ(rec.pc, instr.pc());
        EXPECT_EQ(rec.op_count, instr.op_count());
        // Patches are the memory and branch ops, numbered in op order.
        std::uint32_t mem_mask = 0;
        unsigned patches = 0;
        for (const Operation& op : instr) {
          if (is_memory(op.kind)) mem_mask |= 1u << patches;
          if (is_memory(op.kind) || op.kind == OpKind::kBranch) ++patches;
        }
        EXPECT_EQ(rec.patch_count, patches) << profile.name;
        EXPECT_EQ(rec.mem_mask, mem_mask) << profile.name;
        EXPECT_EQ(rec.mem_count, std::popcount(mem_mask)) << profile.name;
      }
    }
  }
}

TEST(SyntheticProgram, AnalyticIpcMatchesTargets) {
  // The builder solves bubbles and miss fractions analytically; its own
  // expectation must land on the Table 1 targets.
  for (const BenchmarkProfile& p : table1_profiles()) {
    const SyntheticProgram prog(p, kM);
    EXPECT_NEAR(prog.expected_ipc_perfect(), p.target_ipc_perfect,
                0.08 * p.target_ipc_perfect)
        << p.name;
    EXPECT_NEAR(prog.expected_ipc_real(), p.target_ipc_real,
                0.08 * p.target_ipc_real)
        << p.name;
  }
}

TEST(SyntheticProgram, HighIlpProgramsAreWider) {
  const auto low = make_program("bzip2");
  const auto high = make_program("colorspace");
  const auto mean_ops = [](const SyntheticProgram& p) {
    double ops = 0, instrs = 0;
    for (const auto& loop : p.loops()) {
      ops += static_cast<double>(loop.total_ops);
      instrs += static_cast<double>(loop.body.size());
    }
    return ops / instrs;
  };
  EXPECT_LT(mean_ops(*low), 2.0);
  EXPECT_GT(mean_ops(*high), 6.0);
}

TEST(SyntheticProgram, SameProfileSameProgram) {
  const SyntheticProgram a(profile_by_name("cjpeg"), kM);
  const SyntheticProgram b(profile_by_name("cjpeg"), kM);
  ASSERT_EQ(a.loops().size(), b.loops().size());
  for (std::size_t l = 0; l < a.loops().size(); ++l) {
    ASSERT_EQ(a.loops()[l].body.size(), b.loops()[l].body.size());
    for (std::size_t i = 0; i < a.loops()[l].body.size(); ++i)
      EXPECT_TRUE(a.loops()[l].body[i] == b.loops()[l].body[i]);
  }
}

TEST(TraceGenerator, DeterministicForSameSeed) {
  const auto prog = make_program("mcf");
  TraceGenerator a(prog, 42), b(prog, 42);
  for (int i = 0; i < 5000; ++i) {
    const Instruction& ia = a.next();
    const Instruction& ib = b.next();
    ASSERT_TRUE(ia == ib) << "diverged at " << i;
  }
}

TEST(TraceGenerator, DifferentSeedsUseDifferentAddressSpaces) {
  const auto prog = make_program("mcf");
  TraceGenerator a(prog, 1), b(prog, 2);
  const std::uint64_t pc_a = a.next().pc();
  const std::uint64_t pc_b = b.next().pc();
  EXPECT_NE(pc_a, pc_b);
}

TEST(TraceGenerator, CopyResumesIdentically) {
  const auto prog = make_program("idct");
  TraceGenerator a(prog, 7);
  for (int i = 0; i < 1234; ++i) a.next();
  TraceGenerator b = a;  // snapshot mid-loop
  for (int i = 0; i < 2000; ++i) {
    const Instruction& ia = a.next();
    const Instruction& ib = b.next();
    ASSERT_TRUE(ia == ib) << "diverged at " << i;
  }
}

TEST(TraceGenerator, EmitsOnlyValidInstructions) {
  const auto prog = make_program("x264");
  TraceGenerator gen(prog, 3);
  for (int i = 0; i < 10000; ++i)
    ASSERT_EQ(gen.next().validate(kM), "");
}

TEST(TraceGenerator, FootprintMatchesEmittedInstruction) {
  const auto prog = make_program("imgpipe");
  TraceGenerator gen(prog, 4);
  for (int i = 0; i < 2000; ++i) {
    const Instruction& instr = gen.next();
    EXPECT_TRUE(gen.current_footprint() == Footprint::of(instr, kM));
  }
}

TEST(TraceGenerator, CountsEmittedInstructions) {
  const auto prog = make_program("bzip2");
  TraceGenerator gen(prog, 5);
  for (int i = 0; i < 321; ++i) gen.next();
  EXPECT_EQ(gen.instructions_emitted(), 321u);
}

TEST(TraceGenerator, MemOpsCarryAddressesInTheRightRegions) {
  const auto prog = make_program("colorspace");
  TraceGenerator gen(prog, 6);
  int hot = 0, cold = 0;
  for (int i = 0; i < 20000; ++i) {
    const Instruction& instr = gen.next();
    for (const Operation& op : instr) {
      if (!is_memory(op.kind)) continue;
      EXPECT_NE(op.addr, 0u);
      // Regions: hot starts at 0x20000000, cold at 0x40000000 (plus the
      // generator's address-space salt).
      if (op.addr - gen.address_salt() >= 0x40000000ULL)
        ++cold;
      else
        ++hot;
    }
  }
  EXPECT_GT(hot, 0);
  EXPECT_GT(cold, 0);  // colorspace streams (IPCr << IPCp)
}

// ------------------------------------------- Emission record vs next()
//
// advance() writes only the per-execution part of an instruction (salted
// PC, data addresses, branch outcome) beside the program's EmitRecord;
// next() materializes the full patched Instruction. The issue path reads
// the former, tools and tests the latter: they must describe the same
// stream.

/// What the issue path reads from one emitted instruction.
struct Emitted {
  std::uint64_t pc = 0;
  std::vector<std::uint64_t> addrs;  ///< memory ops' addresses, op order
  bool taken = false;
  std::size_t op_count = 0;
  bool bubble = false;

  friend bool operator==(const Emitted&, const Emitted&) = default;
};

std::ostream& operator<<(std::ostream& os, const Emitted& e) {
  os << "{pc=" << e.pc << " ops=" << e.op_count << " bubble=" << e.bubble
     << " taken=" << e.taken << " addrs=[";
  for (const std::uint64_t a : e.addrs) os << a << ",";
  return os << "]}";
}

Emitted from_record(const TraceGenerator& g) {
  Emitted e;
  e.pc = g.current_pc();
  const auto addrs = g.current_mem_addrs();
  e.addrs.assign(addrs.begin(), addrs.end());
  e.taken = g.current_taken();
  e.op_count = g.current_record().op_count;
  e.bubble = g.current_record().op_count == 0;
  return e;
}

Emitted from_instruction(const Instruction& instr) {
  Emitted e;
  e.pc = instr.pc();
  for (const Operation& op : instr) {
    if (is_memory(op.kind)) e.addrs.push_back(op.addr);
    if (op.kind == OpKind::kBranch && op.taken) e.taken = true;
  }
  e.op_count = instr.op_count();
  e.bubble = instr.empty();
  return e;
}

/// Drives one advance()-only and one next()-only generator over the same
/// stream and compares them instruction by instruction. The advance()
/// side also materializes current_instruction() now and then, which must
/// equal next()'s and must not disturb the stream.
void expect_record_matches_next(
    const std::shared_ptr<const SyntheticProgram>& prog,
    std::uint64_t seed, int n) {
  TraceGenerator lean(prog, seed);
  TraceGenerator full(prog, seed);
  for (int i = 0; i < n; ++i) {
    lean.advance();
    const Instruction& instr = full.next();
    ASSERT_EQ(from_record(lean), from_instruction(instr))
        << prog->profile().name << " seed " << seed << " instr " << i;
    ASSERT_EQ(&lean.current_footprint(), &full.current_footprint());
    if (i % 7 == 0) {
      ASSERT_TRUE(lean.current_instruction() == instr)
          << prog->profile().name << " instr " << i;
      const auto patches = lean.current_patches();
      std::size_t k = 0;
      for (std::size_t op = 0; op < instr.op_count(); ++op) {
        const OpKind kind = instr.op(op).kind;
        if (!is_memory(kind) && kind != OpKind::kBranch) continue;
        ASSERT_LT(k, patches.size());
        ASSERT_EQ(patches[k++], op);
      }
      ASSERT_EQ(k, patches.size());
    }
  }
}

TEST(EmitRecord, AdvanceMatchesNextOnTable1Programs) {
  for (const BenchmarkProfile& profile : table1_profiles())
    expect_record_matches_next(
        std::make_shared<const SyntheticProgram>(profile, kM), 11, 10000);
}

TEST(EmitRecord, AdvanceMatchesNextOnVexAsmPrograms) {
  // The hand-written kernels of examples/asm_playground, a kernel whose
  // mid-body packet holds two independently resolved branches, and every
  // Table 1 program round-tripped through the textual format.
  const char* kernels[] = {R"(
.program narrow-chaser
.machine clusters=4 issue=4
.stride 8
.codebytes 32
.midtaken 0.2
.loop trips=32 miss=0.05 code=0x10000 hot=0x20000000+2048 cold=0x40000000
{ c0.2 ld }
{ c0.0 alu }
{ }
{ c0.0 alu ; c0.3 br }
.endloop
)",
                           R"(
.program wide-kernel
.machine clusters=4 issue=4
.stride 8
.codebytes 32
.midtaken 0.2
.loop trips=64 miss=0.01 code=0x10000 hot=0x20000000+4096 cold=0x48000000
{ c1.0 alu ; c1.1 mpy ; c1.2 ld ; c2.0 alu ; c2.2 ld ; c3.0 alu }
{ c1.0 alu ; c2.0 alu ; c2.1 alu ; c3.0 alu ; c3.2 st }
{ c1.0 alu ; c1.1 alu ; c2.0 alu ; c3.0 alu ; c3.3 br }
.endloop
)",
                           R"(
.program two-branches
.machine clusters=4 issue=4
.stride 24
.codebytes 16
.midtaken 0.5
.loop trips=5 miss=0.5 code=0x10000 hot=0x20000000+512 cold=0x40000000
{ c0.2 ld ; c0.3 br ; c1.2 st ; c1.3 br ; c2.2 ld }
{ }
{ c3.2 ld ; c0.3 br }
.endloop
.loop trips=3 miss=0.0 code=0x11000 hot=0x20001000+256 cold=0x44000000
{ c2.3 br ; c2.2 st ; c3.3 br }
{ c1.3 br }
.endloop
)"};
  for (const char* text : kernels)
    expect_record_matches_next(parse_program(text, kM), 5, 10000);
  for (const BenchmarkProfile& profile : table1_profiles())
    expect_record_matches_next(
        parse_program(dump_program(SyntheticProgram(profile, kM)), kM), 3,
        10000);
}

TEST(EmitRecord, AdvanceMatchesNextOnGeneratedProfiles) {
  // Fuzz-generated profiles on fuzz-generated machines (heterogeneous and
  // narrow shapes included), as the differential fuzzer builds them.
  WorkloadGen workloads(2024);
  MachineGen machines(4048);
  for (int i = 0; i < 200; ++i) {
    const BenchmarkProfile profile = workloads.next("gen" + std::to_string(i));
    const MachineConfig machine = machines.next_machine();
    expect_record_matches_next(
        std::make_shared<const SyntheticProgram>(profile, machine),
        static_cast<std::uint64_t>(i), 10000);
  }
}

TEST(EmitRecord, SnapshotsResumeIdentically) {
  // A copy taken mid-stream and a reset()-and-replayed generator both
  // continue exactly like the original, record for record.
  for (const char* name : {"mcf", "colorspace", "x264"}) {
    const auto prog = make_program(name);
    TraceGenerator original(prog, 77);
    for (int i = 0; i < 4321; ++i) original.advance();
    TraceGenerator copy = original;
    TraceGenerator rewound(make_program("idct"), 3);
    for (int i = 0; i < 100; ++i) rewound.advance();
    rewound.reset(prog, 77);
    for (int i = 0; i < 4321; ++i) rewound.advance();
    for (int i = 0; i < 10000; ++i) {
      original.advance();
      copy.advance();
      rewound.advance();
      ASSERT_EQ(from_record(copy), from_record(original)) << name << i;
      ASSERT_EQ(from_record(rewound), from_record(original)) << name << i;
      ASSERT_EQ(&copy.current_footprint(), &original.current_footprint());
      ASSERT_EQ(&rewound.current_footprint(), &original.current_footprint());
    }
    EXPECT_EQ(copy.instructions_emitted(), original.instructions_emitted());
    EXPECT_EQ(rewound.instructions_emitted(), original.instructions_emitted());
  }
}

TEST(TraceGenerator, GsmencodeHasNoColdStream) {
  // gsmencode's IPCr == IPCp: the calibration must produce no miss mix.
  const auto prog = make_program("gsmencode");
  for (const auto& loop : prog->loops())
    EXPECT_DOUBLE_EQ(loop.miss_frac, 0.0);
}

TEST(TraceGenerator, VerticalWasteExistsForLowIlp) {
  const auto prog = make_program("bzip2");
  TraceGenerator gen(prog, 8);
  int bubbles = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) bubbles += gen.next().empty() ? 1 : 0;
  // bzip2's IPCp (0.83) < its op density: bubbles must appear.
  EXPECT_GT(bubbles, n / 10);
}

TEST(TraceGenerator, BranchDensityRoughlyOnePerBody) {
  const auto prog = make_program("gsmencode");
  TraceGenerator gen(prog, 9);
  int taken = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i)
    if (gen.next().taken_branch() != nullptr) ++taken;
  // One loop-end taken branch per body (~body_size instructions) plus a
  // few mid-branches.
  const double body = static_cast<double>(n) / taken;
  EXPECT_GT(body, 4.0);
  EXPECT_LT(body, 40.0);
}

TEST(TraceGenerator, ClusterHomesVaryAcrossLoops) {
  // CSMT depends on different loops anchoring to different clusters.
  const auto prog = make_program("mcf");
  std::map<std::uint32_t, int> mask_census;
  for (const auto& loop : prog->loops()) {
    std::uint32_t combined = 0;
    for (const auto& fp : loop.footprints) combined |= fp.cluster_mask();
    ++mask_census[combined];
  }
  // At least two distinct home-cluster patterns across the 12 loops.
  EXPECT_GE(mask_census.size(), 2u);
}

}  // namespace
}  // namespace cvmt
