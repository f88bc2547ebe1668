// fusion_service: batch fusion-as-a-service over the workload gallery.
//
// Drives svc::FusionService across the full gallery (paper + extended
// workloads), plus any --mldg / --dsl files, and writes the structured JSON
// run report. Two modes:
//
//   default      one service run (LF_FAULT from the environment applies,
//                as everywhere else in the repo);
//   --storm      one service run per compiled-in fault point, arming each
//                in turn -- the robustness acceptance drill: every job of
//                every run must end Verified or Quarantined-with-trace,
//                and the process must never crash.
//
// Examples:
//   fusion_service --workers 8 --report run.json --checkpoint run.ckpt
//   fusion_service --storm --workers 2 --report storm.json
//   LF_FAULT=solver.spfa fusion_service --attempts 4
//
// Exit code: 0 when every job of every run reached a terminal state
// (Verified | Quarantined with a non-empty trace); 1 otherwise.

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "support/faultpoint.hpp"
#include "svc/manifest.hpp"
#include "svc/report.hpp"
#include "svc/service.hpp"

namespace {

void usage() {
    std::cout <<
        "usage: fusion_service [options]\n"
        "  --workers N        worker threads (default 4)\n"
        "  --attempts K       planning attempts per job (default 3)\n"
        "  --steps S          first-attempt step budget (default 16384)\n"
        "  --escalation F     budget multiplier per retry (default 8)\n"
        "  --deadline-ms D    per-job wall-clock deadline (default unlimited)\n"
        "  --breaker-k K      consecutive failures that open a breaker (default 3)\n"
        "  --probe P          probe every P-th open-breaker admission (default 4)\n"
        "  --checkpoint FILE  checkpoint manifest (resume: rerun with the same file)\n"
        "  --cache N          plan-cache capacity in plans; 0 disables (default 128)\n"
        "  --plan-policy P    planning objective: fastest (default; classic plans,\n"
        "                     bit-identical) or smallest (smallest-magnitude retiming)\n"
        "  --report FILE      write the JSON run report here (default: stdout)\n"
        "  --no-timings       omit wall-clock fields from the report\n"
        "  --mldg FILE        add a graph-only job from serialized MLDG text\n"
        "  --dsl FILE         add a replayable job from DSL program text\n"
        "  --domain N M       replay domain (default 12 12)\n"
        "  --exec             compile + run emitted kernels natively before Verified\n"
        "  --exec-cache DIR   compiled-object cache directory (default: per-run temp,\n"
        "                     or <store>/objects when --store is set)\n"
        "  --exec-wall-ms W   native sandbox wall-clock budget (default 10000)\n"
        "  --exec-threads T   also run the ABI v2 parallel kernel entry with T lanes\n"
        "                     and quarantine on any thread-count variance (default 1)\n"
        "  --exec-tile N      parallel scheduler tile in iterations (default: auto)\n"
        "  --exec-cutoff C    rounds narrower than C stay serial (default 0)\n"
        "  --store DIR        persistent plan tier; admitted plans and compiled\n"
        "                     objects survive restarts under this directory\n"
        "  --storm            run once per compiled-in fault point, arming each in turn\n"
        "  --help             this text\n";
}

std::string read_file(const std::string& path) {
    std::ifstream in(path);
    if (!in.good()) throw std::runtime_error("cannot read " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::string stem_of(const std::string& path) {
    const std::size_t slash = path.find_last_of('/');
    std::string name = slash == std::string::npos ? path : path.substr(slash + 1);
    const std::size_t dot = name.find_last_of('.');
    if (dot != std::string::npos && dot > 0) name = name.substr(0, dot);
    return name;
}

/// The terminal-state invariant the storm drill asserts: every job ended
/// Verified or Quarantined, and every quarantined job carries a trace.
bool report_terminal(const lf::svc::RunReport& report, std::string& why) {
    for (const auto& job : report.jobs) {
        if (job.status == lf::svc::JobStatus::Verified) continue;
        if (job.status != lf::svc::JobStatus::Quarantined) {
            why = "job '" + job.id + "' ended non-terminal: " + lf::svc::to_string(job.status);
            return false;
        }
        if (job.final_trace().empty()) {
            why = "job '" + job.id + "' quarantined without a StageReport trace";
            return false;
        }
    }
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    lf::svc::ServiceConfig config;
    std::string report_path;
    bool include_timings = true;
    bool storm = false;
    lf::Domain domain{12, 12};
    std::vector<std::string> mldg_files;
    std::vector<std::string> dsl_files;

    auto next_arg = [&](int& i) -> const char* {
        if (i + 1 >= argc) {
            std::cerr << "fusion_service: missing value for " << argv[i] << "\n";
            std::exit(2);
        }
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        try {
            if (arg == "--workers") config.workers = std::stoi(next_arg(i));
            else if (arg == "--attempts") config.retry.max_attempts = std::stoi(next_arg(i));
            else if (arg == "--steps") config.retry.initial_steps = std::stoull(next_arg(i));
            else if (arg == "--escalation") config.retry.escalation = std::stoi(next_arg(i));
            else if (arg == "--deadline-ms") config.retry.deadline_ms = std::stoll(next_arg(i));
            else if (arg == "--breaker-k") config.breaker.failure_threshold = std::stoi(next_arg(i));
            else if (arg == "--probe") config.breaker.probe_interval = std::stoi(next_arg(i));
            else if (arg == "--checkpoint") config.checkpoint_path = next_arg(i);
            else if (arg == "--cache") config.plan_cache_capacity = std::stoull(next_arg(i));
            else if (arg == "--plan-policy") {
                const std::string name = next_arg(i);
                const std::optional<lf::PlanPolicy> parsed = lf::parse_plan_policy(name);
                if (!parsed.has_value()) {
                    std::cerr << "error: unknown plan policy '" << name
                              << "' (fastest|smallest)\n";
                    return 1;
                }
                config.plan_policy = *parsed;
            }
            else if (arg == "--report") report_path = next_arg(i);
            else if (arg == "--no-timings") include_timings = false;
            else if (arg == "--mldg") mldg_files.push_back(next_arg(i));
            else if (arg == "--dsl") dsl_files.push_back(next_arg(i));
            else if (arg == "--domain") {
                domain.n = std::stoll(next_arg(i));
                domain.m = std::stoll(next_arg(i));
            } else if (arg == "--exec") config.native_exec = true;
            else if (arg == "--exec-cache") config.native_cache_dir = next_arg(i);
            else if (arg == "--exec-wall-ms") config.native_wall_ms = std::stoll(next_arg(i));
            else if (arg == "--exec-threads") config.exec_threads = std::stoi(next_arg(i));
            else if (arg == "--exec-tile") config.exec_tile = std::stoi(next_arg(i));
            else if (arg == "--exec-cutoff") config.exec_serial_cutoff = std::stoll(next_arg(i));
            else if (arg == "--store") config.plan_store_dir = next_arg(i);
            else if (arg == "--storm") storm = true;
            else if (arg == "--help" || arg == "-h") { usage(); return 0; }
            else {
                std::cerr << "fusion_service: unknown option '" << arg << "'\n";
                usage();
                return 2;
            }
        } catch (const std::exception& e) {
            std::cerr << "fusion_service: bad value for " << arg << ": " << e.what() << "\n";
            return 2;
        }
    }

    try {
        std::vector<lf::svc::JobSpec> jobs = lf::svc::full_gallery_jobs(domain);
        {
            // Depth-d source jobs ride every run (and every storm pass), so
            // the N-D pipeline is exercised under the same fault drills.
            std::vector<lf::svc::JobSpec> nd = lf::svc::nd_jobs();
            jobs.insert(jobs.end(), std::make_move_iterator(nd.begin()),
                        std::make_move_iterator(nd.end()));
        }
        for (const auto& path : mldg_files) {
            jobs.push_back(lf::svc::job_from_mldg_text("mldg-" + stem_of(path), read_file(path)));
        }
        for (const auto& path : dsl_files) {
            jobs.push_back(lf::svc::job_from_dsl_text("dsl-" + stem_of(path), read_file(path),
                                                      "dsl", domain));
        }

        std::ostringstream out;
        bool all_terminal = true;

        auto summarize = [&](const lf::svc::RunReport& report, const std::string& label) {
            const lf::svc::RunCounts counts = report.counts();
            std::cout << (label.empty() ? std::string("run") : "fault " + label) << ": "
                      << counts.verified << " verified, " << counts.quarantined
                      << " quarantined";
            if (counts.short_circuited > 0) {
                std::cout << ", " << counts.short_circuited << " short-circuited";
            }
            if (config.native_exec) {
                std::cout << ", native " << counts.native_verified << " verified/"
                          << counts.native_contained << " contained/"
                          << counts.native_skipped << " skipped";
            }
            std::cout << " (" << report.jobs.size() << " jobs)\n";
            std::string why;
            if (!report_terminal(report, why)) {
                std::cerr << "fusion_service: TERMINAL-STATE VIOLATION: " << why << "\n";
                all_terminal = false;
            }
        };

        if (storm) {
            // One run per compiled-in fault point, each against a fresh
            // service (breakers reset with the fault).
            out << "{\n  \"storm\": [";
            bool first = true;
            for (const std::string& point : lf::faultpoint::known_points()) {
                lf::faultpoint::reset();
                lf::faultpoint::arm(point);
                lf::svc::FusionService service(config);
                const lf::svc::RunReport report = service.run(jobs);
                summarize(report, point);
                if (!first) out << ",";
                first = false;
                std::istringstream body(lf::svc::report_to_json(report, include_timings));
                out << "\n    {\n      \"fault\": \"" << point << "\",\n      \"report\": ";
                std::string line;
                bool first_line = true;
                while (std::getline(body, line)) {
                    if (!first_line) out << "\n      ";
                    out << line;
                    first_line = false;
                }
                out << "\n    }";
            }
            lf::faultpoint::reset();
            out << "\n  ]\n}\n";
        } else {
            lf::svc::FusionService service(config);
            const lf::svc::RunReport report = service.run(jobs);
            summarize(report, "");
            out << lf::svc::report_to_json(report, include_timings) << "\n";
        }

        if (report_path.empty()) {
            std::cout << out.str();
        } else {
            std::ofstream file(report_path);
            file << out.str();
            if (!file.good()) {
                std::cerr << "fusion_service: cannot write report to " << report_path << "\n";
                return 1;
            }
            std::cout << "report written to " << report_path << "\n";
        }
        return all_terminal ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << "fusion_service: fatal: " << e.what() << "\n";
        return 1;
    }
}
