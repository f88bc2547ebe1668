#pragma once
// The benchmark's workloads. Each builds its inputs from the seed, runs its
// set-up and timed phase, checks every operation, and fills an Outcome.
// With RunArgs::trace set it also runs the traced pass and fills the
// per-layer sheet. Set-up failures throw std::runtime_error.

#include "common.hpp"

namespace pb {

[[nodiscard]] Outcome run_wire_gallery(const RunArgs& args);
[[nodiscard]] Outcome run_wire_large(const RunArgs& args);
[[nodiscard]] Outcome run_native_gallery(const RunArgs& args);

/// Appends trace.p50_overhead_frac: the traced pass's p50_ms relative to
/// the untraced pass's.
void add_trace_overhead(Outcome& out);

/// Writes the trace's spans to <workdir>/trace-<workload>-seed<n>.jsonl and
/// notes the path in the report.
void write_spans(const RunArgs& args, const Trace& trace, Outcome& out);

}  // namespace pb
