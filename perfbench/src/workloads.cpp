#include "workloads.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "exp/driver.hpp"
#include "exp/report.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "sim/session.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "testgen/fuzz_driver.hpp"
#include "testgen/generators.hpp"

namespace perfbench {
namespace {

using cvmt::ArtifactCache;
using cvmt::ArtifactCacheStats;
using cvmt::BatchJob;
using cvmt::SimResult;

/// Fewer passes (or untraced/traced pairs) than this give no median worth
/// reporting.
constexpr int kMinPasses = 3;
/// Cases of the testgen probe of every traced run.
constexpr std::uint64_t kProbeCases = 100;

/// One cold run of a workload, from parameters to emitted bytes, through
/// the program's own entry point.
struct PassOutcome {
  double wall_s = 0, run_s = 0, cpu_s = 0;
  std::string bytes;
  /// Simulations each grid point or case ran.
  std::vector<int> simulations;
  std::uint64_t oracle_failures = 0;
  /// Artifact builds and lookups of the pass. fuzz builds every case's
  /// artifacts itself, without a cache: misses only.
  ArtifactCacheStats cache;
  /// Experiment workloads: the first section's data as JSON, compared
  /// with the same table rendered from the count pass.
  std::string table_json;
};

/// Every job (fig10/table1) or every case's baseline configuration (fuzz)
/// run once by the benchmark itself, one SimSession per worker. Gives
/// the simulator counters the metrics divide by and, traced, the per-job
/// spans.
struct CountOutcome {
  std::vector<SimResult> results;
  std::vector<ReplayJob> jobs;  ///< results[i] belongs to jobs[i]
  std::uint64_t instances = 0;
  std::string table_json;  ///< experiment workloads, see PassOutcome
};

std::string results_digest(const std::vector<SimResult>& results) {
  std::ostringstream os;
  for (const SimResult& r : results)
    os << r.scheme << ' ' << r.cycles << ' ' << r.total_ops << ' '
       << r.total_instructions << ' ' << r.idle_cycles << ' '
       << r.icache.hits << '/' << r.icache.total << ' ' << r.dcache.hits
       << '/' << r.dcache.total << ' ' << r.l2.hits << '/' << r.l2.total
       << '\n';
  return digest_hex(os.str());
}

ArtifactCacheStats minus(const ArtifactCacheStats& a,
                         const ArtifactCacheStats& b) {
  ArtifactCacheStats d;
  d.scheme_hits = a.scheme_hits - b.scheme_hits;
  d.scheme_misses = a.scheme_misses - b.scheme_misses;
  d.program_hits = a.program_hits - b.program_hits;
  d.program_misses = a.program_misses - b.program_misses;
  d.workload_hits = a.workload_hits - b.workload_hits;
  d.workload_misses = a.workload_misses - b.workload_misses;
  return d;
}

/// The campaign's cases: case i from the i-th SplitMix64 draw of `seed`,
/// as run_fuzz_sweep derives them, each generated in a "testgen.generate"
/// span.
std::vector<cvmt::FuzzCase> generate_cases(std::uint64_t seed,
                                           std::uint64_t n, unsigned workers,
                                           SpanRecorder* recorder,
                                           std::int64_t parent) {
  std::vector<std::uint64_t> seeds;
  cvmt::SplitMix64 sm(seed);
  for (std::uint64_t i = 0; i < n; ++i) seeds.push_back(sm.next());
  std::vector<cvmt::FuzzCase> cases(seeds.size());
  parallel_for(workers, seeds.size(), [&](std::size_t i, unsigned) {
    const Span span(recorder, "testgen.generate", parent,
                    static_cast<std::int64_t>(i));
    cases[i] = cvmt::generate_case(seeds[i]);
  });
  return cases;
}

/// Runs job `make(i)` for every i in [0, n) through one SimSession per
/// worker, each run in a "sim.run" span. Only the jobs listed in `keep`
/// are stored, so a campaign of thousands of cases holds just the ones
/// the layer replays need.
template <typename Make>
void dispatch(unsigned workers, std::size_t n, ArtifactCache& cache,
              const std::vector<std::size_t>& keep, SpanRecorder* recorder,
              CountOutcome& out, Make make) {
  std::vector<std::unique_ptr<cvmt::SimSession>> sessions;
  for (unsigned w = 0; w < std::max(workers, 1u); ++w)
    sessions.push_back(std::make_unique<cvmt::SimSession>(cache));
  std::vector<char> kept(n, 0);
  for (const std::size_t k : keep) kept[k] = 1;
  out.results.assign(n, SimResult{});
  out.jobs.assign(n, ReplayJob{});
  {
    const Span root(recorder, "exp.dispatch", -1, -1);
    const std::int64_t parent = root.id();
    parallel_for(workers, n, [&](std::size_t i, unsigned w) {
      ReplayJob job = make(i);
      {
        const Span span(recorder, "sim.run", parent,
                        static_cast<std::int64_t>(i));
        out.results[i] = sessions[w]->run(job.scheme->scheme(),
                                          job.programs, job.config);
      }
      if (kept[i] != 0) out.jobs[i] = std::move(job);
    });
  }
  for (const auto& s : sessions) out.instances += s->num_instances();
  for (const std::size_t k : keep) out.jobs[k].result = &out.results[k];
}

class Workload {
 public:
  explicit Workload(const Options& opts) : opts_(opts) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// The count pass. A traced one runs at stats=full and keeps the jobs
  /// the layer replays need.
  [[nodiscard]] virtual CountOutcome count(bool traced,
                                           SpanRecorder* recorder) = 0;
  /// One pass through the program's own entry point: `Experiment::run`
  /// with its lazy artifact builds, or `run_fuzz_sweep`.
  [[nodiscard]] virtual PassOutcome pass(SpanRecorder* recorder,
                                         std::int64_t run) = 0;
  /// The set-up sample: params, then cold builds of every artifact a
  /// pass builds. Returns its seconds.
  [[nodiscard]] virtual double setup_once(SpanRecorder* recorder) = 0;
  /// Indices of the count-pass jobs the layer replays cover.
  [[nodiscard]] virtual std::vector<std::size_t> replay_sample(
      std::size_t jobs) const = 0;
  /// Replay counters must match the simulator's (single-thread jobs).
  [[nodiscard]] virtual bool asserts_replay() const { return false; }

 protected:
  const Options& opts_;
};

// --- fig10 / table1 ----------------------------------------------------------

class ExperimentWorkload final : public Workload {
 public:
  ExperimentWorkload(const Options& opts, const cvmt::Experiment& exp)
      : Workload(opts), exp_(exp) {}

  CountOutcome count(bool traced, SpanRecorder* recorder) override {
    const std::vector<BatchJob> jobs = make_jobs(resolve_params());
    ArtifactCache& cache = ArtifactCache::global();
    CountOutcome out;
    dispatch(opts_.workers, jobs.size(), cache,
             traced ? replay_sample(jobs.size()) : std::vector<std::size_t>{},
             recorder, out, [&](std::size_t i) {
               const BatchJob& job = jobs[i];
               ReplayJob r;
               r.scheme = cache.scheme(job.scheme, job.sim.machine);
               r.programs =
                   cache.workload(job.benchmarks, job.sim.machine)->programs;
               r.config = job.sim;
               if (traced) r.config.stats = cvmt::StatsLevel::kFull;
               return r;
             });
    out.table_json = render_table(out.results);
    return out;
  }

  PassOutcome pass(SpanRecorder* recorder, std::int64_t run) override {
    PassOutcome out;
    ArtifactCache& cache = ArtifactCache::global();
    cache.clear();  // cold, as in a fresh `cvmt run` process
    const ArtifactCacheStats before = cache.stats();
    const double cpu0 = cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    const Span root(recorder, "bench.pass", -1, run);

    cvmt::ExperimentParams params;
    {
      const Span span(recorder, "exp.params");
      params = resolve_params();
    }
    cvmt::ExperimentResult result;
    const Clock::time_point t1 = Clock::now();
    {
      const Span span(recorder, "exp.run");
      result = exp_.run(cvmt::RunContext{params});
    }
    out.run_s = seconds_since(t1);
    {
      const Span span(recorder, "exp.emit");
      std::ostringstream os;
      cvmt::print_result(os, exp_, params, result,
                         cvmt::OutputFormat::kJson);
      out.bytes = os.str();
    }
    out.wall_s = seconds_since(t0);
    out.cpu_s = cpu_seconds() - cpu0;
    out.cache = minus(cache.stats(), before);
    out.simulations.assign(make_jobs(params).size(), 1);
    out.oracle_failures = result.ok ? 0 : out.simulations.size();
    if (!result.sections.empty()) {
      std::ostringstream os;
      result.sections.front().data.to_json().write(os);
      out.table_json = os.str();
    }
    return out;
  }

  std::vector<std::size_t> replay_sample(std::size_t jobs) const override {
    std::vector<std::size_t> out;
    if (exp_.id == "fig10") {
      // One job per scheme, walking the workloads diagonally so every
      // scheme and every Table 2 row is covered once.
      const std::size_t schemes = cvmt::Scheme::paper_schemes_4t().size();
      const std::size_t rows = jobs / schemes;
      for (std::size_t s = 0; s < schemes && rows > 0; ++s)
        out.push_back((s % rows) * schemes + s);
    } else {
      for (std::size_t i = 0; i < jobs; ++i) out.push_back(i);
    }
    return out;
  }

  bool asserts_replay() const override { return exp_.id == "table1"; }

  /// Builds each distinct program and scheme once, fanned over the
  /// workers as the run's own lazy builds are, then the workloads from
  /// the cached programs.
  double setup_once(SpanRecorder* recorder) override {
    ArtifactCache& cache = ArtifactCache::global();
    cache.clear();
    const Clock::time_point t0 = Clock::now();
    const Span root(recorder, "bench.setup", -1, -1);
    std::vector<BatchJob> jobs;
    {
      const Span span(recorder, "exp.params");
      jobs = make_jobs(resolve_params());
    }
    const Span span(recorder, "sim.compile");
    // The first job that uses each program, scheme and workload. Every
    // job of an experiment runs on the same machine.
    std::map<std::string, const BatchJob*> programs, schemes, workloads;
    for (const BatchJob& job : jobs) {
      schemes.emplace(job.scheme.name(), &job);
      std::string key;
      for (const std::string& b : job.benchmarks) {
        programs.emplace(b, &job);
        key += b + ',';
      }
      workloads.emplace(key, &job);
    }
    std::vector<std::function<void()>> builds;
    for (const auto& entry : programs)
      builds.push_back([&, name = entry.first, job = entry.second] {
        const Span s(recorder, "trace.program_build", span.id(), -1);
        (void)cache.program(name, job->sim.machine);
      });
    for (const auto& entry : schemes)
      builds.push_back([&, job = entry.second] {
        const Span s(recorder, "sim.scheme_build", span.id(), -1);
        (void)cache.scheme(job->scheme, job->sim.machine);
      });
    parallel_for(opts_.workers, builds.size(),
                 [&](std::size_t i, unsigned) { builds[i](); });
    for (const auto& entry : workloads) {
      const Span s(recorder, "sim.workload_build");
      (void)cache.workload(entry.second->benchmarks,
                           entry.second->sim.machine);
    }
    return seconds_since(t0);
  }

 private:
  /// The experiment's parameters exactly as `cvmt run <id>` resolves
  /// them (run.py clears every CVMT_* variable), then the seed.
  cvmt::ExperimentParams resolve_params() const {
    cvmt::ArgParser parser("perfbench", "experiment parameters");
    cvmt::ExperimentParams::add_standard_flags(parser);
    std::vector<std::string> args = {
        "perfbench", "--workers=" + std::to_string(opts_.workers)};
    if (opts_.budget != 0)
      args.push_back("--budget=" + std::to_string(opts_.budget));
    std::vector<const char*> argv;
    for (const std::string& a : args) argv.push_back(a.c_str());
    CVMT_CHECK(parser.parse(static_cast<int>(argv.size()), argv.data()) ==
               cvmt::ArgParser::Outcome::kOk);
    cvmt::ExperimentParams p = cvmt::ExperimentParams::resolve(parser);
    if (opts_.seed != kDefaultSeed) {
      cvmt::SplitMix64 sm(opts_.seed);
      p.cfg.sim.os_seed = sm.next();
      p.cfg.sim.stream_seed_base = sm.next();
    }
    return p;
  }

  /// The experiment's job list, in the experiment's own order.
  std::vector<BatchJob> make_jobs(const cvmt::ExperimentParams& p) const {
    std::vector<BatchJob> jobs;
    if (exp_.id == "fig10") {
      const std::vector<cvmt::Scheme> schemes =
          cvmt::Scheme::paper_schemes_4t();
      for (const cvmt::Workload& w : cvmt::table2_workloads())
        for (const cvmt::Scheme& s : schemes)
          jobs.push_back(cvmt::make_job(s, w, p.cfg.sim));
    } else {
      cvmt::SimConfig perfect = p.cfg.sim;
      perfect.mem.perfect = true;
      const cvmt::Scheme single = cvmt::Scheme::single_thread();
      for (const cvmt::BenchmarkProfile& prof : cvmt::table1_profiles()) {
        jobs.push_back({single, {prof.name}, p.cfg.sim});
        jobs.push_back({single, {prof.name}, perfect});
      }
    }
    return jobs;
  }

  /// The experiment's first table, rendered from the count pass results.
  std::string render_table(const std::vector<SimResult>& results) const {
    cvmt::Dataset data;
    if (exp_.id == "fig10") {
      cvmt::Fig10Result f;
      for (const cvmt::Scheme& s : cvmt::Scheme::paper_schemes_4t())
        f.schemes.push_back(s.name());
      for (const cvmt::Workload& w : cvmt::table2_workloads())
        f.workloads.push_back(w.ilp_combo);
      const std::size_t ns = f.schemes.size();
      f.ipc.assign(f.workloads.size(), std::vector<double>(ns, 0.0));
      f.average.assign(ns, 0.0);
      for (std::size_t w = 0; w < f.workloads.size(); ++w)
        for (std::size_t s = 0; s < ns; ++s) {
          f.ipc[w][s] = results[w * ns + s].ipc;
          f.average[s] += f.ipc[w][s];
        }
      for (double& a : f.average) a /= static_cast<double>(f.workloads.size());
      data = cvmt::render_fig10(f);
    } else {
      std::vector<cvmt::Table1Row> rows;
      const auto& profiles = cvmt::table1_profiles();
      for (std::size_t i = 0; i < profiles.size(); ++i) {
        cvmt::Table1Row row;
        row.name = profiles[i].name;
        row.ilp = cvmt::to_char(profiles[i].ilp);
        row.paper_ipc_real = profiles[i].target_ipc_real;
        row.paper_ipc_perfect = profiles[i].target_ipc_perfect;
        row.sim_ipc_real = results[2 * i].ipc;
        row.sim_ipc_perfect = results[2 * i + 1].ipc;
        rows.push_back(row);
      }
      data = cvmt::render_table1(rows);
    }
    std::ostringstream os;
    data.to_json().write(os);
    return os.str();
  }

  const cvmt::Experiment& exp_;
};

// --- fuzz --------------------------------------------------------------------

class FuzzWorkload final : public Workload {
 public:
  using Workload::Workload;

  CountOutcome count(bool traced, SpanRecorder* recorder) override {
    // The oracle's baseline configuration: full stats, plan evaluator,
    // stall fast-forward. Every other oracle run of a passing case must
    // reproduce its counters.
    const std::vector<cvmt::FuzzCase> cases =
        generate_cases(opts_.seed, opts_.cases, opts_.workers, nullptr, -1);
    ArtifactCache cache;
    CountOutcome out;
    dispatch(opts_.workers, cases.size(), cache,
             traced ? replay_sample(cases.size()) : std::vector<std::size_t>{},
             recorder, out, [&](std::size_t i) {
               const cvmt::FuzzCase& c = cases[i];
               ReplayJob r;
               r.scheme = std::make_shared<const cvmt::CompiledScheme>(
                   c.parse_scheme(), c.sim.machine);
               r.programs = c.build_programs();
               r.config = c.sim;
               r.config.stats = cvmt::StatsLevel::kFull;
               r.config.eval_mode = cvmt::EvalMode::kPlan;
               r.config.stall_fast_forward = true;
               return r;
             });
    return out;
  }

  /// `cvmt fuzz --cases=N --seed=S`: run_fuzz_sweep, then its printout.
  PassOutcome pass(SpanRecorder* recorder, std::int64_t run) override {
    PassOutcome out;
    const double cpu0 = cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    const Span root(recorder, "bench.pass", -1, run);

    cvmt::FuzzOptions options;
    {
      const Span span(recorder, "exp.params");
      options.cases = opts_.cases;
      options.seed = opts_.seed;
      options.workers = opts_.workers;
    }
    cvmt::FuzzSweepResult sweep;
    const Clock::time_point t1 = Clock::now();
    {
      const Span span(recorder, "exp.run");
      sweep = cvmt::run_fuzz_sweep(options);
    }
    out.run_s = seconds_since(t1);
    {
      const Span span(recorder, "exp.emit");
      if (opts_.inject_oracle_failure && !sweep.outcomes.empty() &&
          sweep.outcomes.front().report.ok) {
        cvmt::OracleReport& r = sweep.outcomes.front().report;
        r.ok = false;
        r.failed_oracle = "injected";
        r.mismatch = "perfbench --inject-oracle-failure";
        ++sweep.failures;
      }
      std::ostringstream os;
      sweep.summary().to_table().print(os);
      if (sweep.failures > 0) {
        os << '\n';
        sweep.failure_table().to_table().print(os);
        os << "\nre-run with --shrink --save=tests/corpus to write "
              "minimal repro files\n";
      }
      out.bytes = os.str();
    }
    out.wall_s = seconds_since(t0);
    out.cpu_s = cpu_seconds() - cpu0;
    out.oracle_failures = sweep.failures;
    for (const cvmt::FuzzOutcome& o : sweep.outcomes) {
      out.simulations.push_back(o.report.simulations);
      // run_oracles without a cache builds each case's programs and its
      // scheme once.
      ++out.cache.scheme_misses;
      out.cache.program_misses += o.c.profiles.size();
    }
    return out;
  }

  std::vector<std::size_t> replay_sample(std::size_t jobs) const override {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < std::min<std::size_t>(jobs, 200); ++i)
      out.push_back(i);
    return out;
  }

  /// Generates the cases and builds each one's programs and scheme, as
  /// run_oracles does inside the sweep, fanned over the workers.
  double setup_once(SpanRecorder* recorder) override {
    const Clock::time_point t0 = Clock::now();
    const Span root(recorder, "bench.setup", -1, -1);
    const std::vector<cvmt::FuzzCase> cases = generate_cases(
        opts_.seed, opts_.cases, opts_.workers, recorder, root.id());
    const Span span(recorder, "sim.compile");
    parallel_for(opts_.workers, cases.size(), [&](std::size_t i, unsigned) {
      const cvmt::FuzzCase& c = cases[i];
      const auto run = static_cast<std::int64_t>(i);
      {
        const Span s(recorder, "trace.program_build", span.id(), run);
        (void)c.build_programs();
      }
      const Span s(recorder, "sim.scheme_build", span.id(), run);
      (void)cvmt::CompiledScheme(c.parse_scheme(), c.sim.machine);
    });
    return seconds_since(t0);
  }
};

// --- the measurement plan ----------------------------------------------------

void add(Report& r, std::string name, double value, std::string unit) {
  r.metrics.push_back({std::move(name), value, std::move(unit)});
}

std::uint64_t sim_instructions(const PassOutcome& p, const CountOutcome& c) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < p.simulations.size() && i < c.results.size();
       ++i)
    total += static_cast<std::uint64_t>(p.simulations[i]) *
             c.results[i].total_instructions;
  return total;
}

/// Checks a pass's output and folds its points into the report.
void check_pass(const PassOutcome& p, const CountOutcome& count,
                const std::string& expected, Report& r) {
  const std::uint64_t points = p.simulations.size();
  r.attempted += points;
  const std::string digest = digest_hex(p.bytes);
  std::string problem;
  if (!expected.empty() && digest != expected)
    problem = "output digest " + digest + " != expected " + expected;
  else if (!r.output_digest.empty() && digest != r.output_digest)
    problem = "output digest " + digest + " differs between passes (" +
              r.output_digest + ")";
  else if (!count.table_json.empty() && p.table_json != count.table_json)
    problem = "the experiment's table differs from the count pass's";
  if (r.output_digest.empty()) r.output_digest = digest;
  if (!problem.empty()) {
    r.failed += points;
    r.problems.push_back(problem);
    return;
  }
  r.failed += p.oracle_failures;
  if (p.oracle_failures != 0)
    r.problems.push_back(std::to_string(p.oracle_failures) +
                         " oracle failures");
}

/// Runs the count pass, checking its results digest against `expected`
/// (empty: no check).
CountOutcome counted(Workload& w, bool traced, SpanRecorder* recorder,
                     const std::string& expected, Report& r) {
  CountOutcome count = w.count(traced, recorder);
  r.attempted += count.results.size();
  r.results_digest = results_digest(count.results);
  if (!expected.empty() && r.results_digest != expected) {
    r.failed += count.results.size();
    r.problems.push_back("results digest " + r.results_digest +
                         " != expected " + expected);
  }
  return count;
}

/// Passes run first and the count pass after them, so peak_rss_mb is the
/// passes' own peak.
void untraced_metrics(Workload& w, const std::string& expected_output,
                      const std::string& expected_results,
                      const Options& opts, Report& r) {
  std::vector<PassOutcome> passes;
  std::vector<double> setup;
  const Clock::time_point t0 = Clock::now();
  for (int n = 0; n < kMinPasses || seconds_since(t0) < opts.seconds; ++n) {
    passes.push_back(w.pass(nullptr, n));
    // Set-up is short next to a pass: sample it on its own after every
    // pass, for a tenth of the pass's time, so its median spans the run.
    const Clock::time_point t1 = Clock::now();
    do {
      setup.push_back(w.setup_once(nullptr));
    } while (seconds_since(t1) < 0.1 * passes.back().wall_s);
  }
  const double peak_mb = peak_rss_mb();
  if (!opts.dump_output.empty())
    std::ofstream(opts.dump_output) << passes.back().bytes;

  const CountOutcome count = counted(w, false, nullptr, expected_results, r);
  std::vector<double> wall, rate, minstr, cpu;
  for (const PassOutcome& p : passes) {
    check_pass(p, count, expected_output, r);
    wall.push_back(p.wall_s);
    rate.push_back(static_cast<double>(p.simulations.size()) / p.wall_s);
    minstr.push_back(static_cast<double>(sim_instructions(p, count)) /
                     p.run_s * 1e-6);
    cpu.push_back(p.cpu_s);
  }
  add(r, "wall_s", median(wall), "s");
  add(r, "setup_s", median(setup), "s");
  add(r, "runs_per_s", median(rate), "1/s");
  add(r, "sim_minstr_per_s", median(minstr), "Minstr/s");
  add(r, "cpu_s", median(cpu), "s");
  add(r, "peak_rss_mb", peak_mb, "MiB");
  for (const auto& [name, values] :
       {std::pair{"wall_s", &wall}, std::pair{"setup_s", &setup},
        std::pair{"cpu_s", &cpu}})
    r.details.push_back(std::string(name) + " over " +
                        std::to_string(values->size()) + " samples: p25 " +
                        std::to_string(quantile(*values, 0.25)) + " s, p75 " +
                        std::to_string(quantile(*values, 0.75)) + " s");
}

/// The spans recorded in `rec` at indices [first, last), with ids and
/// parents re-based so the slice indexes itself. Spans of one slice must
/// not nest under spans outside it.
std::vector<SpanRecord> span_slice(const SpanRecorder& rec, std::size_t first,
                                   std::size_t last) {
  std::vector<SpanRecord> all = rec.spans();
  std::vector<SpanRecord> spans(all.begin() + static_cast<long>(first),
                                all.begin() + static_cast<long>(last));
  for (SpanRecord& s : spans) {
    s.id -= static_cast<std::int64_t>(first);
    if (s.parent >= 0) s.parent -= static_cast<std::int64_t>(first);
  }
  return spans;
}

/// The testgen layer: the first kProbeCases cases of a campaign at the
/// run's seed, each generated and checked by run_oracles (no cache, one
/// lane) as run_fuzz_sweep does, in "testgen.generate" and
/// "testgen.oracles" spans. On fuzz these are the campaign's own first
/// cases. Returns the oracle failures.
std::uint64_t testgen_probe(const Options& opts, SpanRecorder& rec) {
  const Span root(&rec, "testgen.probe", -1, -1);
  const std::vector<cvmt::FuzzCase> cases =
      generate_cases(opts.seed, kProbeCases, opts.workers, &rec, root.id());
  std::vector<char> failed(cases.size(), 0);
  parallel_for(opts.workers, cases.size(), [&](std::size_t i, unsigned) {
    const Span span(&rec, "testgen.oracles", root.id(),
                    static_cast<std::int64_t>(i));
    failed[i] = cvmt::run_oracles(cases[i], nullptr, 1).ok ? 0 : 1;
  });
  return static_cast<std::uint64_t>(
      std::count(failed.begin(), failed.end(), 1));
}

void traced_metrics(Workload& w, const CountOutcome& count,
                    const std::string& expected, SpanRecorder& rec,
                    const Options& opts, Report& r) {
  const std::vector<SpanRecord> count_spans = rec.spans();
  const std::size_t pass_first = count_spans.size();
  // Untraced and traced passes alternate for half the run time, at least
  // kMinPasses pairs, so the tracing overhead compares medians taken under
  // the same box load. The second traced pass's spans feed the layer
  // metrics: the first pair, right after the count pass, runs slow.
  std::vector<double> plain_wall, traced_wall;
  PassOutcome traced;
  const Clock::time_point t0 = Clock::now();
  for (int n = 0; n < kMinPasses || seconds_since(t0) < opts.seconds / 2;
       ++n) {
    const PassOutcome plain = w.pass(nullptr, 2 * n);
    check_pass(plain, count, expected, r);
    plain_wall.push_back(plain.wall_s);
    SpanRecorder discarded;
    PassOutcome p = w.pass(n == 1 ? &rec : &discarded, 2 * n + 1);
    check_pass(p, count, expected, r);
    traced_wall.push_back(p.wall_s);
    if (n == 1) traced = std::move(p);
  }
  if (!opts.dump_output.empty())
    std::ofstream(opts.dump_output) << traced.bytes;
  r.details.push_back("untraced/traced passes: " +
                      std::to_string(plain_wall.size()) + " each");
  // One traced set-up sample: the cold builds, span by span.
  const std::size_t setup_first = rec.spans().size();
  (void)w.setup_once(&rec);
  const std::size_t setup_last = rec.spans().size();
  const std::vector<SpanRecord> pass_spans =
      span_slice(rec, pass_first, setup_first);
  const std::vector<SpanRecord> setup_spans =
      span_slice(rec, setup_first, setup_last);

  LayerTotals layers;
  for (const std::size_t i : w.replay_sample(count.jobs.size()))
    layers.add(replay_job(count.jobs[i], static_cast<std::int64_t>(i), &rec));
  if (w.asserts_replay()) {
    r.attempted += layers.checked_jobs;
    r.failed += layers.mismatched_jobs;
    if (layers.mismatched_jobs != 0)
      r.problems.push_back("replay self-check: " + layers.first_mismatch);
  }

  const std::size_t probe_first = rec.spans().size();
  const std::uint64_t probe_failures = testgen_probe(opts, rec);
  const std::vector<SpanRecord> probe_spans =
      span_slice(rec, probe_first, rec.spans().size());
  r.attempted += kProbeCases;
  r.failed += probe_failures;
  if (probe_failures != 0)
    r.problems.push_back("testgen probe: " + std::to_string(probe_failures) +
                         " oracle failures");

  // Exact simulator counters over every job.
  std::uint64_t cycles = 0, instructions = 0, idle = 0, checks = 0,
                rejects = 0;
  cvmt::RatioCounter icache, dcache, l2;
  for (const SimResult& s : count.results) {
    cycles += s.cycles;
    instructions += s.total_instructions;
    idle += s.idle_cycles;
    icache.hits += s.icache.hits;
    icache.total += s.icache.total;
    dcache.hits += s.dcache.hits;
    dcache.total += s.dcache.total;
    l2.hits += s.l2.hits;
    l2.total += s.l2.total;
    for (const cvmt::MergeNodeStats& m : s.merge_nodes) {
      checks += m.attempts;
      rejects += m.rejects;
    }
  }
  const auto per = [](double s, std::uint64_t n) {
    return n == 0 ? 0.0 : s / static_cast<double>(n) * 1e9;
  };
  const double advance_ns = per(layers.advance_s, layers.advanced);
  const double fetch_ns = per(layers.fetch_s, layers.fetches);
  const double data_ns = per(layers.data_s, layers.data_accesses);
  const double select_ns = per(layers.select_s, layers.decisions);
  // Every cycle with an offer is one merge decision.
  const std::uint64_t decisions = cycles - idle;
  // The simulator counts merge checks, not select_multi calls; the
  // replay's calls-per-check ratio converts one into the other.
  const double select_calls =
      layers.select_checks == 0
          ? 0.0
          : static_cast<double>(checks) *
                static_cast<double>(layers.multi_decisions) /
                static_cast<double>(layers.select_checks);
  const double advance_est = advance_ns * static_cast<double>(instructions) * 1e-9;
  const double fetch_est = fetch_ns * static_cast<double>(icache.total) * 1e-9;
  const double data_est = data_ns * static_cast<double>(dcache.total) * 1e-9;
  const double select_est = select_ns * static_cast<double>(decisions) * 1e-9;

  const double run_s = total_seconds(count_spans, "sim.run");
  const std::vector<double> run_ms = durations_ms(count_spans, "sim.run");
  const double dispatch_s = total_seconds(count_spans, "exp.dispatch");

  add(r, "exp.params_s", total_seconds(pass_spans, "exp.params"), "s");
  add(r, "exp.emit_s", total_seconds(pass_spans, "exp.emit"), "s");
  add(r, "exp.run_batch_s", total_seconds(pass_spans, "exp.run"), "s");
  add(r, "exp.jobs", static_cast<double>(traced.simulations.size()), "count");
  add(r, "exp.worker_busy_frac", run_s / (opts.workers * dispatch_s),
      "ratio");

  add(r, "sim.compile_s", total_seconds(setup_spans, "sim.compile"), "s");
  add(r, "sim.artifact_hit_rate", traced.cache.hit_rate(), "ratio");
  add(r, "sim.scheme_builds", static_cast<double>(traced.cache.scheme_misses),
      "count");
  add(r, "sim.program_builds",
      static_cast<double>(traced.cache.program_misses), "count");
  add(r, "sim.run_s", run_s, "s");
  add(r, "sim.run_ms_p50", quantile(run_ms, 0.5), "ms");
  add(r, "sim.run_ms_p90", quantile(run_ms, 0.9), "ms");
  add(r, "sim.ns_per_instr", per(run_s, instructions), "ns");
  add(r, "sim.cycles", static_cast<double>(cycles), "count");
  add(r, "sim.instructions", static_cast<double>(instructions), "count");
  add(r, "sim.idle_cycles", static_cast<double>(idle), "count");
  add(r, "sim.loop_other_s",
      run_s - advance_est - fetch_est - data_est - select_est, "s");
  add(r, "sim.instances", static_cast<double>(count.instances), "count");

  add(r, "trace.advance_ns", advance_ns, "ns");
  add(r, "trace.advance_s_est", advance_est, "s");
  add(r, "trace.program_build_s",
      total_seconds(setup_spans, "trace.program_build"), "s");

  add(r, "mem.fetch_ns", fetch_ns, "ns");
  add(r, "mem.data_access_ns", data_ns, "ns");
  add(r, "mem.icache_accesses", static_cast<double>(icache.total), "count");
  add(r, "mem.icache_hit_rate", icache.rate(), "ratio");
  add(r, "mem.dcache_accesses", static_cast<double>(dcache.total), "count");
  add(r, "mem.dcache_hit_rate", dcache.rate(), "ratio");
  add(r, "mem.l2_hit_rate", l2.rate(), "ratio");
  add(r, "mem.fetch_s_est", fetch_est, "s");
  add(r, "mem.data_access_s_est", data_est, "s");
  add(r, "mem.replay_icache_hit_rate", layers.replay_icache.rate(), "ratio");
  add(r, "mem.replay_dcache_hit_rate", layers.replay_dcache.rate(), "ratio");
  add(r, "mem.replay_checked_jobs", static_cast<double>(layers.checked_jobs),
      "count");
  add(r, "mem.replay_mismatches", static_cast<double>(layers.mismatched_jobs),
      "count");

  add(r, "core.select_ns", select_ns, "ns");
  add(r, "core.decisions", static_cast<double>(decisions), "count");
  add(r, "core.select_calls", select_calls, "count");
  add(r, "core.merge_checks", static_cast<double>(checks), "count");
  add(r, "core.accept_ratio",
      checks == 0 ? 0.0
                  : 1.0 - static_cast<double>(rejects) /
                              static_cast<double>(checks),
      "ratio");
  add(r, "core.select_s_est", select_est, "s");

  const std::vector<double> case_ms =
      durations_ms(probe_spans, "testgen.oracles");
  add(r, "testgen.generate_ms",
      quantile(durations_ms(probe_spans, "testgen.generate"), 0.5), "ms");
  add(r, "testgen.oracle_ms_p50", quantile(case_ms, 0.5), "ms");
  add(r, "testgen.oracle_ms_p99", quantile(case_ms, 0.99), "ms");
  add(r, "testgen.cases", static_cast<double>(case_ms.size()), "count");
  add(r, "testgen.failures", static_cast<double>(probe_failures), "count");

  // Self time of each layer within the traced pass and set-up sample.
  const std::map<std::string, double> self =
      self_seconds_by_name(span_slice(rec, pass_first, setup_last));
  for (const char* layer : {"bench", "exp", "sim", "trace"}) {
    double total = 0.0;
    for (const auto& [name, seconds] : self)
      if (name.rfind(std::string(layer) + ".", 0) == 0) total += seconds;
    add(r, std::string("self.") + layer + "_s", total, "s");
  }
  add(r, "trace.untraced_wall_s", median(plain_wall), "s");
  add(r, "trace.traced_wall_s", median(traced_wall), "s");
  add(r, "trace.overhead_s", median(traced_wall) - median(plain_wall), "s");

  if (!opts.trace_out.empty()) {
    std::ofstream os(opts.trace_out);
    rec.write_chrome_trace(os);
    if (!os) throw std::runtime_error("cannot write " + opts.trace_out);
  }
}

std::unique_ptr<Workload> make_workload(const Options& opts) {
  if (opts.workload == "fuzz") return std::make_unique<FuzzWorkload>(opts);
  const cvmt::Experiment* exp =
      opts.workload == "fig10" || opts.workload == "table1"
          ? cvmt::ExperimentRegistry::instance().find(opts.workload)
          : nullptr;
  if (exp == nullptr)
    throw std::invalid_argument("unknown workload: " + opts.workload);
  return std::make_unique<ExperimentWorkload>(opts, *exp);
}

/// Every run, whatever its seed, also reproduces the committed digests
/// of a small default-seed canary (a reduced budget or case count), so a
/// change to the simulator's answers fails the run at any seed.
void run_canary(const Options& opts, const cvmt::JsonValue& canary,
                Report& r) {
  Options c = opts;
  c.seed = kDefaultSeed;
  c.trace = false;
  c.dump_output.clear();
  if (const cvmt::JsonValue* v = canary.find("budget"))
    c.budget = static_cast<std::uint64_t>(v->as_int());
  if (const cvmt::JsonValue* v = canary.find("cases"))
    c.cases = static_cast<std::uint64_t>(v->as_int());
  const std::unique_ptr<Workload> w = make_workload(c);
  Report cr;
  const CountOutcome count =
      counted(*w, false, nullptr, canary.get("results").as_string(), cr);
  check_pass(w->pass(nullptr, -1), count, canary.get("output").as_string(),
             cr);
  r.attempted += cr.attempted;
  r.failed += cr.failed;
  for (const std::string& p : cr.problems)
    r.problems.push_back("canary: " + p);
}

}  // namespace

Report run_benchmark(const Options& options) {
  Options opts = options;
  opts.workers = std::min(cvmt::ThreadPool::hardware_workers(), 4u);

  Report r;
  std::string expected_output, expected_results;
  cvmt::JsonValue canary;
  if (!opts.digests_file.empty()) {
    std::ifstream in(opts.digests_file);
    std::ostringstream text;
    text << in.rdbuf();
    if (!in) throw std::runtime_error("cannot read " + opts.digests_file);
    const cvmt::JsonValue digests = cvmt::JsonValue::parse(text.str());
    const cvmt::JsonValue& entry = digests.get(opts.workload);
    canary = entry.get("canary");
    if (opts.seed == static_cast<std::uint64_t>(entry.get("seed").as_int()) &&
        opts.budget == 0 && opts.cases == kDefaultCases) {
      expected_output = entry.get("output").as_string();
      expected_results = entry.get("results").as_string();
    }
  }

  const std::unique_ptr<Workload> w = make_workload(opts);
  if (opts.trace) {
    SpanRecorder rec;
    const CountOutcome count =
        counted(*w, true, &rec, expected_results, r);
    traced_metrics(*w, count, expected_output, rec, opts, r);
  } else {
    untraced_metrics(*w, expected_output, expected_results, opts, r);
  }
  if (!opts.digests_file.empty()) run_canary(opts, canary, r);
  return r;
}

}  // namespace perfbench
