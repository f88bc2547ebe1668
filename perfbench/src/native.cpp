// native_gallery: programs turned into verified native kernels, then run.
//
// Set-up takes every kernel through parse, plan, fuse_program + emit, the
// interpreter reference checksum, a cold compile into a cache directory the
// run owns, and one verifying sandbox run. The timed phase then runs seeded
// rounds over the kernels; one operation is exec::run_kernel (1 lane) plus
// exec::run_kernel_par (2 lanes), and it verifies only when both runs report
// zero mismatches and checksums bit-identical to the interpreter-verified
// reference.

#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <optional>
#include <random>

#include "analysis/dependence.hpp"
#include "exec/compile.hpp"
#include "exec/runner.hpp"
#include "front/parse.hpp"
#include "fusion/certify.hpp"
#include "fusion/driver.hpp"
#include "fusion/multidim.hpp"
#include "support/cemit.hpp"
#include "svc/manifest.hpp"
#include "transform/codegen_c.hpp"
#include "transform/codegen_nd.hpp"
#include "transform/fused_program.hpp"

namespace pb {

namespace {

constexpr int kParLanes = 2;

struct Kernel {
    std::string name;
    std::string source;
    lf::Domain dom2{0, 0};
    lf::exec::MdDomain domn;
    std::string so_path;
    /// Checksum of the verifying sandbox run, equal to the interpreter's.
    double reference = 0;
    std::int64_t source_bytes = 0;
};

/// One timed-phase sample of one kernel.
struct Sample {
    double orig_ms = 0;      // in-kernel unfused time (1 lane)
    double fused_ms = 0;     // in-kernel fused time (1 lane)
    double fused_par_ms = 0; // in-kernel fused time (2 lanes)
};

std::string domain_text(const Kernel& k) {
    std::string out;
    if (k.domn.ext.empty()) return std::to_string(k.dom2.n) + "x" + std::to_string(k.dom2.m);
    for (const std::int64_t e : k.domn.ext) out += (out.empty() ? "" : "x") + std::to_string(e);
    return out;
}

std::vector<Kernel> gallery_kernels() {
    std::vector<Kernel> out;
    for (const lf::svc::JobSpec& job : lf::svc::full_gallery_jobs()) {
        if (job.dsl_source.empty()) continue;  // fig14 is graph-only
        Kernel k;
        k.name = job.id;
        k.source = job.dsl_source;
        // hydro's values overflow to NaN from about 704^2, where bitwise
        // equality stops meaning anything; it runs at 512^2.
        const std::int64_t side = job.id == "hydro" ? 512 : 1024;
        k.dom2 = lf::Domain{side, side};
        out.push_back(std::move(k));
    }
    for (const lf::svc::JobSpec& job : lf::svc::nd_jobs()) {
        Kernel k;
        k.name = job.id;
        k.source = job.dsl_source;
        const std::int64_t side = job.depth == 3 ? 96 : 24;
        k.domn.ext.assign(static_cast<std::size_t>(job.depth), side);
        out.push_back(std::move(k));
    }
    return out;
}

lf::exec::SandboxLimits sandbox_limits() {
    lf::exec::SandboxLimits limits;
    limits.wall_ms = 60'000;
    limits.cpu_seconds = 60;
    return limits;
}

/// Why `run` does not reproduce `k`'s reference, or "" when it does.
std::string check_run(const Kernel& k, const lf::exec::RunOutcome& run, const char* lanes) {
    const std::string who = k.name + " (" + lanes + "): ";
    if (!run.ok()) return who + lf::exec::to_string(run.state) + ": " + run.detail;
    if (run.result.mismatches != 0) {
        return who + std::to_string(run.result.mismatches) + " fused/original mismatches";
    }
    if (std::memcmp(&run.result.checksum_original, &k.reference, sizeof(double)) != 0 ||
        std::memcmp(&run.result.checksum_fused, &k.reference, sizeof(double)) != 0) {
        return who + "checksum differs from the interpreter-verified reference";
    }
    return {};
}

/// Set-up of one kernel, spans under request id `idx`. Returns "" or why the
/// kernel could not be made ready.
std::string setup_kernel(Kernel& k, std::uint64_t idx, lf::exec::KernelCompiler& compiler,
                         Trace& trace) {
    const Scope root(trace, "setup.kernel", idx);
    std::optional<lf::front::AnyProgram> any;
    {
        const Scope s(trace, "front.parse", idx, root.id());
        any = lf::front::parse_any_program(k.source);
    }
    std::string c_source;
    std::string expected;
    if (any->is_2d()) {
        const lf::ir::Program& p = *any->p2;
        lf::Mldg g;
        {
            const Scope s(trace, "analysis.build_mldg", idx, root.id());
            g = lf::analysis::build_mldg(p);
        }
        std::optional<lf::Result<lf::FusionPlan>> plan;
        {
            const Scope s(trace, "fusion.plan", idx, root.id());
            plan = lf::try_plan_fusion(g);
        }
        if (!plan->ok()) return k.name + ": planning failed: " + plan->status().message();
        {
            const Scope s(trace, "fusion.certify", idx, root.id());
            if (!lf::certify_plan(g, plan->value())) return k.name + ": plan does not certify";
        }
        {
            const Scope s(trace, "transform.emit", idx, root.id());
            const lf::transform::FusedProgram fp = lf::transform::fuse_program(p, plan->value());
            c_source = lf::transform::emit_c_kernel_library(p, fp, k.dom2);
        }
        {
            const Scope s(trace, "exec.interp", idx, root.id());
            expected = lf::transform::expected_c_checksum(p, k.dom2);
        }
    } else {
        const auto& p = *any->pn;
        lf::MldgN g{p.dim};
        {
            const Scope s(trace, "analysis.build_mldg", idx, root.id());
            g = lf::analysis::build_mldg_nd(p);
        }
        std::optional<lf::NdFusionPlan> plan;
        {
            const Scope s(trace, "fusion.plan", idx, root.id());
            plan = lf::plan_fusion_nd(g);
        }
        {
            const Scope s(trace, "fusion.certify", idx, root.id());
            if (!lf::certify_plan(g, *plan)) return k.name + ": plan does not certify";
        }
        {
            const Scope s(trace, "transform.emit", idx, root.id());
            c_source = lf::transform::emit_md_c_kernel_library(p, *plan, k.domn);
        }
        {
            const Scope s(trace, "exec.interp", idx, root.id());
            expected = lf::transform::expected_md_c_checksum(p, k.domn);
        }
    }
    k.source_bytes = static_cast<std::int64_t>(c_source.size());
    {
        const Scope s(trace, "exec.compile", idx, root.id());
        const lf::Result<lf::exec::CompiledKernel> compiled = compiler.compile(c_source);
        if (!compiled.ok()) return k.name + ": compile failed: " + compiled.status().message();
        if (compiled.value().from_cache) return k.name + ": compile cache was not cold";
        k.so_path = compiled.value().path;
    }
    const Scope s(trace, "exec.verify", idx, root.id());
    const lf::exec::RunOutcome run = lf::exec::run_kernel(k.so_path, sandbox_limits());
    if (!run.ok()) return k.name + ": verifying run: " + run.detail;
    if (run.result.mismatches != 0) return k.name + ": verifying run found mismatches";
    if (lf::cemit::format_checksum(run.result.checksum_original) != expected) {
        return k.name + ": native checksum differs from the interpreter's " + expected;
    }
    k.reference = run.result.checksum_original;
    return {};
}

struct TimedPass {
    std::vector<double> latencies_ms;  // verified operations only
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::string first_failure;
    double seconds = 0;
    std::vector<std::vector<Sample>> per_kernel;
};

/// Seeded rounds over the kernels until `seconds` have passed; a started
/// round always completes, so every kernel carries the same weight.
TimedPass timed_pass(const std::vector<Kernel>& kernels, std::uint64_t seed, double seconds,
                     Trace& trace) {
    TimedPass out;
    out.per_kernel.resize(kernels.size());
    const lf::exec::SandboxLimits limits = sandbox_limits();
    lf::exec::KernelParams par;
    par.threads = kParLanes;
    std::vector<std::size_t> order(kernels.size());
    std::iota(order.begin(), order.end(), 0);
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t round = 0; seconds_between(t0, Clock::now()) < seconds; ++round) {
        std::mt19937_64 rng(mix(seed, round));
        std::shuffle(order.begin(), order.end(), rng);
        for (const std::size_t i : order) {
            const Kernel& k = kernels[i];
            const Scope op(trace, "op", i);
            ++out.attempted;
            const Clock::time_point a = Clock::now();
            lf::exec::RunOutcome one;
            {
                const Scope s(trace, "exec.run_kernel", i, op.id());
                one = lf::exec::run_kernel(k.so_path, limits);
            }
            lf::exec::RunOutcome two;
            {
                const Scope s(trace, "exec.run_kernel_par", i, op.id());
                two = lf::exec::run_kernel_par(k.so_path, par, limits);
            }
            const Clock::time_point c = Clock::now();
            std::string why = check_run(k, one, "1 lane");
            if (why.empty()) why = check_run(k, two, "2 lanes");
            if (!why.empty()) {
                ++out.failed;
                if (out.first_failure.empty()) out.first_failure = why;
                continue;
            }
            out.latencies_ms.push_back(seconds_between(a, c) * 1e3);
            Sample smp;
            smp.orig_ms = static_cast<double>(one.result.ns_original) / 1e6;
            smp.fused_ms = static_cast<double>(one.result.ns_fused) / 1e6;
            smp.fused_par_ms = static_cast<double>(two.result.ns_fused) / 1e6;
            out.per_kernel[i].push_back(smp);
        }
    }
    out.seconds = seconds_between(t0, Clock::now());
    return out;
}

/// Median of one Sample field over a kernel's samples.
double kernel_median(const std::vector<Sample>& s, double Sample::*field) {
    std::vector<double> v;
    v.reserve(s.size());
    for (const Sample& x : s) v.push_back(x.*field);
    return median(std::move(v));
}

/// Geometric mean over kernels of each kernel's median of `field`.
double gallery_geomean(const TimedPass& pass, double Sample::*field) {
    std::vector<double> v;
    for (const auto& s : pass.per_kernel) {
        if (!s.empty()) v.push_back(kernel_median(s, field));
    }
    return geomean(v);
}

std::vector<Metric> end_to_end(const TimedPass& pass, double setup_s, double rss_mb,
                               std::size_t kernels) {
    std::vector<Metric> m;
    m.push_back({"setup_s", setup_s, "s",
                 std::to_string(kernels) + " kernels: parse, plan, emit, interpreter "
                                           "checksum, cold compile, verifying run"});
    add_operation_metrics(m, pass.latencies_ms, pass.attempted, pass.failed, pass.seconds);
    m.push_back({"peak_rss_mb", rss_mb, "MB", "perfbench process VmHWM"});
    return m;
}

/// The kernels' own run time: exec.kernel_ms (1 lane) and
/// exec.kernel_par_ms (2 lanes, ABI v2 entry).
std::vector<Metric> kernel_metrics(const TimedPass& pass) {
    return {{"exec.kernel_ms", gallery_geomean(pass, &Sample::fused_ms), "ms",
             "geomean over kernels of the median in-kernel fused time, 1 lane"},
            {"exec.kernel_par_ms", gallery_geomean(pass, &Sample::fused_par_ms), "ms",
             "geomean over kernels of the median in-kernel fused time, 2 lanes"}};
}

}  // namespace

Outcome run_native_gallery(const RunArgs& args) {
    Outcome out;
    RunDir dir(args.workdir);
    lf::exec::CompileOptions copts;
    copts.cache_dir = dir.sub("objects");
    lf::exec::KernelCompiler compiler(copts);
    if (!compiler.available()) throw std::runtime_error("no working C compiler ('cc') on PATH");

    std::vector<Kernel> kernels = gallery_kernels();
    const Clock::time_point origin = Clock::now();
    Trace setup_trace(args.trace, origin);
    const Clock::time_point s0 = Clock::now();
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        const std::string why = setup_kernel(kernels[i], i, compiler, setup_trace);
        if (!why.empty()) throw std::runtime_error("set-up: " + why);
    }
    const double setup_s = seconds_between(s0, Clock::now());

    Trace untraced(false);
    const TimedPass pass = timed_pass(kernels, args.seed, args.pass_seconds(), untraced);
    out.attempted = pass.attempted;
    out.failed = pass.failed;
    out.first_failure = pass.first_failure;
    out.end_to_end = end_to_end(pass, setup_s, peak_rss_mb(), kernels.size());
    for (const Metric& m : kernel_metrics(pass)) {
        out.report.push_back(m.name + " = " + std::to_string(m.value) + " " + m.unit + " (" +
                             m.note + ", untraced pass)");
    }
    if (!args.trace) return out;

    Trace trace(true, origin);
    const TimedPass traced = timed_pass(kernels, args.seed, args.pass_seconds(), trace);
    out.attempted += traced.attempted;
    out.failed += traced.failed;
    if (out.first_failure.empty()) out.first_failure = traced.first_failure;
    out.traced_end_to_end = end_to_end(traced, setup_s, peak_rss_mb(), kernels.size());
    trace.merge(setup_trace);

    // Per-kernel rows: set-up layers from the set-up spans, run layers from
    // the traced timed pass.
    const auto by_kernel = [&](const char* name) {
        std::vector<std::vector<double>> v(kernels.size());
        for (const auto& [req, us] : trace.self_times(name)) v[req].push_back(us);
        return v;
    };
    const auto emit_us = by_kernel("transform.emit");
    const auto interp_us = by_kernel("exec.interp");
    const auto compile_us = by_kernel("exec.compile");
    const auto sandbox_us = by_kernel("exec.run_kernel");
    std::vector<double> g_emit, g_kb, g_interp, g_compile, g_sandbox, g_overhead, g_orig;
    out.report.push_back(
        "kernel     domain          emit_us  source_kb  interp_ms  compile_ms  sandbox_ms  "
        "overhead_ms  orig_ms  fused_ms  par2_ms  n");
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        const auto& s = traced.per_kernel[i];
        if (s.empty()) continue;
        const double e = median(emit_us[i]);
        const double kb = static_cast<double>(kernels[i].source_bytes) / 1024.0;
        const double in = median(interp_us[i]) / 1e3;
        const double co = median(compile_us[i]) / 1e3;
        const double sb = median(sandbox_us[i]) / 1e3;
        const double orig = kernel_median(s, &Sample::orig_ms);
        const double fused = kernel_median(s, &Sample::fused_ms);
        const double par = kernel_median(s, &Sample::fused_par_ms);
        const double ov = sb - orig - fused;
        g_emit.push_back(e);
        g_kb.push_back(kb);
        g_interp.push_back(in);
        g_compile.push_back(co);
        g_sandbox.push_back(sb);
        g_overhead.push_back(ov);
        g_orig.push_back(orig);
        char line[512];
        std::snprintf(line, sizeof line,
                      "%-10s %-14s %8.1f %10.1f %10.1f %11.1f %11.2f %12.2f %8.3f %9.3f %8.3f  %zu",
                      kernels[i].name.c_str(), domain_text(kernels[i]).c_str(), e, kb, in, co, sb,
                      ov, orig, fused, par, s.size());
        out.report.push_back(line);
    }
    const std::vector<Metric> kernel = kernel_metrics(traced);
    const double kms = kernel[0].value;
    const auto setup_layer = [&](const char* span, const char* name) {
        const std::vector<double> v = trace.self_us(span);
        return Metric{name, median(v), "us",
                      "median over kernels of the set-up call, n=" + std::to_string(v.size())};
    };
    const std::string n = std::to_string(g_orig.size()) + " kernels";
    out.per_layer = {
        setup_layer("front.parse", "front.parse_us"),
        setup_layer("analysis.build_mldg", "analysis.build_mldg_us"),
        setup_layer("fusion.plan", "fusion.plan_us"),
        setup_layer("fusion.certify", "fusion.certify_us"),
        {"transform.emit_us", geomean(g_emit), "us", "geomean, fuse_program + emit, " + n},
        {"transform.source_kb", geomean(g_kb), "KB", "geomean of emitted C size, " + n},
        {"exec.interp_ms", geomean(g_interp), "ms", "geomean, interpreter checksum, " + n},
        {"exec.compile_ms", geomean(g_compile), "ms", "geomean, cold KernelCompiler::compile, " + n},
        {"exec.sandbox_ms", geomean(g_sandbox), "ms", "geomean of median run_kernel wall, " + n},
        {"exec.sandbox_overhead_ms", geomean(g_overhead), "ms",
         "geomean of run_kernel wall - in-kernel original - in-kernel fused"},
        kernel[0],
        kernel[1],
        {"exec.kernel_orig_ms", geomean(g_orig), "ms", "geomean of median unfused time, 1 lane"},
        {"exec.fused_ratio", kms / geomean(g_orig), "ratio",
         "base: exec.kernel_orig_ms; exec.kernel_ms / exec.kernel_orig_ms"},
        {"exec.par_ratio", kernel[1].value / kms, "ratio",
         "base: exec.kernel_ms; exec.kernel_par_ms / exec.kernel_ms"},
    };
    add_trace_overhead(out);
    write_spans(args, trace, out);
    return out;
}

}  // namespace pb
