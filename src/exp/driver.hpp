// The cvmt experiment driver: the code path behind the `cvmt` CLI binary
// (tools/cvmt_main.cpp). Resolves parameters
// (CLI flags over CVMT_* environment over defaults), runs experiments
// from the registry, and emits results as an aligned table (the legacy
// bench output, byte-identical), CSV or JSON.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "exp/registry.hpp"

namespace cvmt {

enum class OutputFormat : std::uint8_t { kTable, kCsv, kJson };

[[nodiscard]] std::string_view to_string(OutputFormat f);

/// Writes one experiment's result in `format`. Table format reproduces
/// the historical bench output (banner, preamble, aligned table with the
/// CVMT_CSV appendix, note). JSON carries id/artifact/description/params/
/// sections; the batch-runner worker count is deliberately excluded from
/// the JSON params block — output is byte-identical for any worker count.
void print_result(std::ostream& os, const Experiment& experiment,
                  const ExperimentParams& params,
                  const ExperimentResult& result, OutputFormat format);

/// JSON form of one experiment result (what print_result kJson writes).
[[nodiscard]] JsonValue result_to_json(const Experiment& experiment,
                                       const ExperimentParams& params,
                                       const ExperimentResult& result);

/// Runs `experiment` and renders into a string — the testable core of the
/// driver (the golden-stability tests compare these bytes across worker
/// counts).
[[nodiscard]] std::string run_to_string(const Experiment& experiment,
                                        const ExperimentParams& params,
                                        OutputFormat format);

/// Entry point of the `cvmt` binary: `cvmt list`, `cvmt run <id|all>`.
[[nodiscard]] int cvmt_main(int argc, const char* const* argv);

}  // namespace cvmt
