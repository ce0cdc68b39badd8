// perfbench: times the cvmt simulator as its users run it and checks its
// outputs. Prints every metric by name with its unit, then, as the last
// line of standard output, one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage:
//   perfbench --workload fig10|table1|fuzz [--seed N] [--seconds S]
//             [--trace 0|1] [--budget N] [--cases N]
//             [--digests FILE] [--trace-out FILE] [--dump-output FILE]
//             [--inject-oracle-failure]
//
// perfbench/run.py builds this binary and supplies the committed digests;
// see perfbench/README.md.
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload fig10|table1|fuzz [--seed N] "
               "[--seconds S] [--trace 0|1] [--budget N] "
               "[--cases N] [--digests FILE] [--trace-out FILE] "
               "[--dump-output FILE] [--inject-oracle-failure]\n";
  return 2;
}

bool parse_u64(std::string_view s, std::uint64_t& out) {
  if (s.empty() || s.size() > 19) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = v;
  return true;
}

/// A JSON number with every digit the double holds.
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--inject-oracle-failure") {
      opts.inject_oracle_failure = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + std::string(flag));
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    const bool numeric = parse_u64(value, n);
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed" && numeric) {
      opts.seed = n;
    } else if (flag == "--seconds" && numeric && n >= 1) {
      opts.seconds = static_cast<double>(n);
    } else if (flag == "--trace" && numeric && n <= 1) {
      opts.trace = n == 1;
    } else if (flag == "--budget" && numeric) {
      opts.budget = n;
    } else if (flag == "--cases" && numeric && n >= 1) {
      opts.cases = n;
    } else if (flag == "--digests") {
      opts.digests_file = value;
    } else if (flag == "--trace-out") {
      opts.trace_out = value;
    } else if (flag == "--dump-output") {
      opts.dump_output = value;
    } else {
      return usage("bad option " + std::string(flag) + " " + value);
    }
  }
  if (opts.workload != "fig10" && opts.workload != "table1" &&
      opts.workload != "fuzz")
    return usage("--workload must be fig10, table1 or fuzz");

  perfbench::Report r;
  try {
    r = perfbench::run_benchmark(opts);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }

  std::printf("workload %s  seed %llu  trace %d\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.trace ? 1 : 0);
  std::printf("output digest  %s\nresults digest %s\n",
              r.output_digest.c_str(), r.results_digest.c_str());
  for (const perfbench::Metric& m : r.metrics)
    std::printf("  %-26s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  for (const std::string& d : r.details) std::printf("  %s\n", d.c_str());
  std::printf("fail_ratio %.6f (%llu failed of %llu attempted)\n",
              r.attempted == 0 ? 0.0
                               : static_cast<double>(r.failed) /
                                     static_cast<double>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  for (const std::string& p : r.problems)
    std::printf("FAILED: %s\n", p.c_str());

  std::string json = "{\"correct\": ";
  json += r.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const perfbench::Metric& m : r.metrics) {
    json += first ? "" : ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
