// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload wire_gallery|wire_large|native_gallery --seed N
//             --seconds S --trace 0|1 --workdir DIR
//
// Prints every metric by name and unit, then, as the last line of standard
// output, one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Exits 1 when any operation fails to verify, 2 on a set-up or
// usage error (no result line then). perfbench/run.py builds and runs it.

#include <cstdio>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace pb {

namespace {

/// Every per-layer metric: which end-to-end metric it should move, and on
/// which workload. Layers are named after the src/ modules they time.
struct LayerRow {
    const char* name;
    const char* unit;
    const char* moves;
    const char* workload;
};

constexpr LayerRow kLayers[] = {
    {"net.rtt_us", "us", "floor of p50_ms", "wire_gallery"},
    {"net.queue_wait_us", "us", "p50_ms, throughput_ops", "wire_gallery, wire_large"},
    {"net.fail_frac", "frac", "verified_frac", "wire_gallery, wire_large"},
    {"front.parse_us", "us", "p50_ms (small)", "wire_gallery"},
    {"analysis.build_mldg_us", "us", "p50_ms (small)", "wire_gallery"},
    {"ldg.parse_mldg_us", "us", "p50_ms, p90_ms, throughput_ops", "wire_large"},
    {"ldg.payload_kb", "KB", "p50_ms, p90_ms, throughput_ops", "wire_large"},
    {"svc.key_of_us", "us", "p50_ms", "wire_large"},
    {"svc.run_hit_us", "us", "p50_ms", "wire_gallery, wire_large"},
    {"svc.run_miss_us", "us", "p90_ms, throughput_ops", "wire_large"},
    {"svc.gate_us", "us", "p50_ms", "wire_gallery, wire_large"},
    {"svc.store_encode_us", "us", "p90_ms", "wire_large"},
    {"svc.store_decode_us", "us", "p90_ms", "wire_large"},
    {"svc.store_kb", "KB", "p90_ms", "wire_large"},
    {"svc.cache_hit_frac", "frac", "p50_ms", "wire_large (2/3), wire_gallery (1)"},
    {"fusion.plan_us", "us", "p90_ms, throughput_ops", "wire_large"},
    {"fusion.certify_us", "us", "p50_ms", "wire_large"},
    {"transform.emit_us", "us", "setup_s", "native_gallery"},
    {"transform.source_kb", "KB", "setup_s", "native_gallery"},
    {"exec.interp_ms", "ms", "setup_s", "native_gallery"},
    {"exec.compile_ms", "ms", "setup_s", "native_gallery"},
    {"exec.sandbox_ms", "ms", "p50_ms", "native_gallery"},
    {"exec.sandbox_overhead_ms", "ms", "p50_ms", "native_gallery"},
    {"exec.kernel_ms", "ms", "p50_ms (small)", "native_gallery"},
    {"exec.kernel_par_ms", "ms", "p50_ms (small)", "native_gallery"},
    {"exec.kernel_orig_ms", "ms", "exec.kernel_ms", "native_gallery"},
    {"exec.fused_ratio", "ratio", "exec.kernel_ms", "native_gallery"},
    {"exec.par_ratio", "ratio", "exec.kernel_par_ms", "native_gallery"},
    {"trace.p50_overhead_frac", "frac", "none (cost of tracing)", "all"},
};

/// The full per-layer sheet in table order: what the workload measured,
/// and 0 for layers it does not exercise.
std::vector<Metric> layer_sheet(const Outcome& o) {
    for (const Metric& m : o.per_layer) {
        bool known = false;
        for (const LayerRow& row : kLayers) known = known || m.name == row.name;
        if (!known) throw std::logic_error("per-layer metric " + m.name + " is not in kLayers");
    }
    std::vector<Metric> sheet;
    for (const LayerRow& row : kLayers) {
        const Metric* m = find_metric(o.per_layer, row.name);
        sheet.push_back(m != nullptr ? *m
                                     : Metric{row.name, 0.0, row.unit,
                                              "not exercised by this workload"});
    }
    return sheet;
}

void print_layer_table(const std::vector<Metric>& sheet) {
    std::printf("per-layer (traced pass): layer -> end-to-end metric it moves -> workload\n");
    std::printf("  %-26s %14s %-6s %-31s %-35s %s\n", "layer metric", "value", "unit", "moves",
                "workload", "measured as");
    for (std::size_t i = 0; i < sheet.size(); ++i) {
        std::printf("  %-26s %14.6g %-6s %-31s %-35s %s\n", sheet[i].name.c_str(),
                    sheet[i].value, sheet[i].unit.c_str(), kLayers[i].moves, kLayers[i].workload,
                    sheet[i].note.c_str());
    }
}

std::string number(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void print_sheet(const char* title, const std::vector<Metric>& sheet) {
    std::printf("%s\n", title);
    for (const Metric& m : sheet) {
        std::printf("  %-26s %14.6g %-6s  (%s)\n", m.name.c_str(), m.value, m.unit.c_str(),
                    m.note.c_str());
    }
}

/// Untraced and traced end-to-end numbers side by side, with the relative
/// difference: the tracing overhead.
void print_overhead(const Outcome& o) {
    std::printf("tracing overhead (traced pass vs untraced pass, same seed and inputs)\n");
    for (const Metric& m : o.end_to_end) {
        const Metric* t = find_metric(o.traced_end_to_end, m.name);
        if (t == nullptr) continue;
        const double rel = m.value != 0 ? (t->value - m.value) / m.value : 0.0;
        std::printf("  %-26s untraced %12.6g  traced %12.6g %-5s  %+7.2f%%\n", m.name.c_str(),
                    m.value, t->value, m.unit.c_str(), rel * 100);
    }
}

void print_result(const std::vector<Metric>& sheet, const Outcome& o) {
    std::string json = "{\"correct\": ";
    json += o.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(o.attempted);
    json += ", \"failed\": " + std::to_string(o.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < sheet.size(); ++i) {
        if (i > 0) json += ", ";
        json += "\"" + sheet[i].name + "\": {\"value\": " + number(sheet[i].value) +
                ", \"unit\": \"" + sheet[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

int usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --workdir DIR\n",
                 why);
    return 2;
}

}  // namespace

void add_trace_overhead(Outcome& out) {
    const Metric* plain = find_metric(out.end_to_end, "p50_ms");
    const Metric* traced = find_metric(out.traced_end_to_end, "p50_ms");
    if (plain == nullptr || traced == nullptr || plain->value == 0) return;
    out.per_layer.push_back({"trace.p50_overhead_frac", (traced->value - plain->value) / plain->value,
                             "frac", "base: untraced p50_ms " + std::to_string(plain->value)});
}

void write_spans(const RunArgs& args, const Trace& trace, Outcome& out) {
    const std::string path = args.workdir + "/trace-" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".jsonl";
    if (!trace.write_jsonl(path)) throw std::runtime_error("cannot write " + path);
    out.report.push_back("spans: " + std::to_string(trace.size()) + " written to " + path);
}

}  // namespace pb

int main(int argc, char** argv) {
    pb::RunArgs args;
    args.bindir = std::filesystem::read_symlink("/proc/self/exe").parent_path().string();
    if (argc % 2 == 0) return pb::usage("every option takes one value");
    try {
        for (int i = 1; i + 1 < argc; i += 2) {
            const std::string key = argv[i];
            const std::string val = argv[i + 1];
            if (key == "--workload") {
                args.workload = val;
            } else if (key == "--seed") {
                args.seed = std::stoull(val);
            } else if (key == "--seconds") {
                args.seconds = std::stod(val);
            } else if (key == "--trace") {
                args.trace = val == "1";
            } else if (key == "--workdir") {
                args.workdir = val;
            } else {
                return pb::usage(("unknown option " + key).c_str());
            }
        }
    } catch (const std::logic_error& e) {
        return pb::usage((std::string("bad number: ") + e.what()).c_str());
    }
    if (args.workdir.empty()) return pb::usage("--workdir is required");
    if (args.seconds <= 0) return pb::usage("--seconds must be positive");

    pb::Outcome out;
    std::vector<pb::Metric> sheet;
    try {
        if (args.workload == "wire_gallery") {
            out = pb::run_wire_gallery(args);
        } else if (args.workload == "wire_large") {
            out = pb::run_wire_large(args);
        } else if (args.workload == "native_gallery") {
            out = pb::run_native_gallery(args);
        } else {
            return pb::usage(("unknown workload '" + args.workload + "'").c_str());
        }
        sheet = args.trace ? pb::layer_sheet(out) : out.end_to_end;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(), e.what());
        return 2;
    }

    std::printf("workload %s, seed %llu, %g s\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds);
    for (const std::string& line : out.report) std::printf("%s\n", line.c_str());
    pb::print_sheet("end-to-end (untraced pass)", out.end_to_end);
    if (args.trace) {
        pb::print_layer_table(sheet);
        pb::print_overhead(out);
    }
    if (out.failed > 0) {
        std::fprintf(stderr, "perfbench: %lld of %lld operations failed to verify; first: %s\n",
                     static_cast<long long>(out.failed), static_cast<long long>(out.attempted),
                     out.first_failure.c_str());
    }
    pb::print_result(sheet, out);
    std::fflush(stdout);
    return out.failed == 0 ? 0 : 1;
}
