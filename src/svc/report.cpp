#include "svc/report.hpp"

#include <cerrno>
#include <fcntl.h>
#include <fstream>
#include <sstream>
#include <sys/stat.h>
#include <unistd.h>
#include <unordered_map>

#include "support/faultpoint.hpp"
#include "support/json.hpp"

namespace lf::svc {

namespace {

/// Solver telemetry as a JSON object. wall_ns is emitted only when the
/// caller wants timings: it is nondeterministic, and the report is otherwise
/// byte-stable for differential testing.
void write_solver_stats(json::Writer& w, const SolverStats& st, bool include_timings) {
    w.begin_object();
    w.kv("solves", st.solves);
    w.kv("edge_scans", st.edge_scans);
    w.kv("relaxations", st.relaxations);
    w.kv("iterations", st.iterations);
    w.kv("queue_pushes", st.queue_pushes);
    w.kv("queue_pops", st.queue_pops);
    w.kv("guard_steps", st.guard_steps);
    w.kv("overflow_near_misses", st.overflow_near_misses);
    w.kv("warm_starts", st.warm_starts);
    w.kv("cold_solves", st.cold_solves);
    w.kv("rungs_shared", st.rungs_shared);
    w.kv("batch_solves", st.batch_solves);
    w.kv("delta_solves", st.delta_solves);
    if (include_timings) w.kv("wall_ns", st.wall_ns);
    w.end_object();
}

void write_stage(json::Writer& w, const StageReport& s, bool include_timings) {
    w.begin_object();
    w.kv("stage", s.stage);
    w.kv("code", to_string(s.code));
    w.kv("detail", s.detail);
    w.kv("budget", s.budget_consumed);
    // Plan-shape observables (filled on a rung's accepting stage); omitted
    // when all zero so non-planning stages stay compact. Deterministic for a
    // given plan, so they are safe outside include_timings.
    if (s.prologue_iters != 0 || s.epilogue_iters != 0 || s.retiming_magnitude != 0) {
        w.kv("prologue_iters", s.prologue_iters);
        w.kv("epilogue_iters", s.epilogue_iters);
        w.kv("retiming_magnitude", s.retiming_magnitude);
    }
    if (s.solver.any()) {
        w.key("solver");
        write_solver_stats(w, s.solver, include_timings);
    }
    w.end_object();
}

void write_attempt(json::Writer& w, const AttemptRecord& a, bool include_timings) {
    w.begin_object();
    w.kv("attempt", a.number);
    w.kv("max_steps", a.max_steps);
    w.kv("code", to_string(a.code));
    w.kv("detail", a.detail);
    w.kv("short_circuited", a.short_circuited);
    w.kv("budget_spent", a.budget_spent);
    w.key("stages").begin_array();
    for (const auto& s : a.stages) write_stage(w, s, include_timings);
    w.end_array();
    w.end_object();
}

void write_job(json::Writer& w, const JobRecord& j, bool include_timings) {
    w.begin_object();
    w.kv("id", j.id);
    w.kv("class", j.klass);
    w.kv("tenant", j.tenant);
    w.kv("depth", j.depth);
    w.kv("status", to_string(j.status));
    w.kv("attempts", static_cast<int>(j.attempts.size()));
    w.kv("algorithm", j.algorithm);
    w.kv("level", j.level);
    w.kv("certified", j.certified);
    w.kv("replay", to_string(j.replay));
    w.kv("quarantine_reason", j.quarantine_reason);
    w.kv("budget_spent", j.total_budget_spent);
    w.kv("short_circuited",
         !j.attempts.empty() && j.attempts.back().short_circuited);
    w.kv("from_checkpoint", j.from_checkpoint);
    w.kv("cache", to_string(j.cache));
    w.kv("native", exec::to_string(j.native));
    w.kv("native_detail", j.native_detail);
    w.kv("native_from_cache", j.native_from_cache);
    w.kv("native_par_threads", static_cast<std::int64_t>(j.native_par_threads));
    w.kv("native_par_tile", static_cast<std::int64_t>(j.native_par_tile));
    // Emitted-source size is deterministic for a given plan + domain; the
    // compile wall time is not, so it rides with the other timings.
    w.kv("native_source_bytes", j.native_source_bytes);
    if (include_timings) {
        w.kv("native_ns_original", j.native_ns_original);
        w.kv("native_ns_fused", j.native_ns_fused);
        w.kv("native_ns_fused_par", j.native_ns_fused_par);
        w.kv("native_compile_ns", j.native_compile_ns);
        w.kv("wall_ms", j.wall_ms);
    }
    // Per-job aggregate over every attempt's stages. Every solve is
    // accounted to exactly one stage: rungs that skip their own
    // schedulability preamble by reusing the ladder's cached validate
    // verdict report `rungs_shared` instead of re-running (and re-counting)
    // the check, so summing stages never double-counts a solve.
    SolverStats total;
    for (const auto& a : j.attempts) {
        for (const auto& s : a.stages) total.merge(s.solver);
    }
    w.key("solver");
    write_solver_stats(w, total, include_timings);
    w.key("attempt_log").begin_array();
    for (const auto& a : j.attempts) write_attempt(w, a, include_timings);
    w.end_array();
    w.end_object();
}

}  // namespace

std::string report_to_json(const RunReport& report, bool include_timings) {
    json::Writer w;
    w.begin_object();

    w.key("service").begin_object();
    w.kv("workers", report.config.workers);
    w.kv("max_attempts", report.config.retry.max_attempts);
    w.kv("initial_steps", report.config.retry.initial_steps);
    w.kv("escalation", report.config.retry.escalation);
    w.kv("deadline_ms", report.config.retry.deadline_ms);
    w.kv("breaker_threshold", report.config.breaker.failure_threshold);
    w.kv("probe_interval", report.config.breaker.probe_interval);
    w.kv("checkpoint", report.config.checkpoint_path);
    w.kv("checkpoint_failures", report.checkpoint_failures);
    w.kv("checkpoint_malformed", report.checkpoint_malformed);
    w.kv("plan_store", report.config.plan_store_dir);
    w.kv("plan_batch", report.config.plan_batch);
    w.kv("delta_max_edges", report.config.delta_max_edges);
    w.kv("plan_policy", to_string(report.config.plan_policy));
    w.end_object();

    const RunCounts counts = report.counts();
    w.key("counts").begin_object();
    w.kv("jobs", static_cast<int>(report.jobs.size()));
    w.kv("verified", counts.verified);
    w.kv("quarantined", counts.quarantined);
    w.kv("from_checkpoint", counts.from_checkpoint);
    w.kv("short_circuited", counts.short_circuited);
    w.kv("cache_hits", counts.cache_hits);
    w.kv("cache_misses", counts.cache_misses);
    w.kv("cache_bypasses", counts.cache_bypasses);
    w.kv("native_verified", counts.native_verified);
    w.kv("native_contained", counts.native_contained);
    w.kv("native_skipped", counts.native_skipped);
    w.end_object();

    w.key("plancache").begin_object();
    w.kv("capacity", static_cast<std::uint64_t>(report.config.plan_cache_capacity));
    w.kv("size", static_cast<std::uint64_t>(report.plancache_size));
    w.kv("hits", report.plancache.hits);
    w.kv("misses", report.plancache.misses);
    w.kv("insertions", report.plancache.insertions);
    w.kv("evictions", report.plancache.evictions);
    w.kv("invalidated", report.plancache.invalidated);
    w.kv("disk_hits", report.plancache.disk_hits);
    w.kv("disk_misses", report.plancache.disk_misses);
    w.kv("disk_writes", report.plancache.disk_writes);
    w.kv("disk_write_failures", report.plancache.disk_write_failures);
    w.kv("disk_quarantined", report.plancache.disk_quarantined);
    w.kv("near_miss_hits", report.plancache.near_miss_hits);
    w.kv("near_miss_misses", report.plancache.near_miss_misses);
    w.kv("dist_writes", report.plancache.dist_writes);
    w.kv("dist_loads", report.plancache.dist_loads);
    w.kv("dist_quarantined", report.plancache.dist_quarantined);
    w.end_object();

    w.key("exec").begin_object();
    w.kv("enabled", report.config.native_exec);
    w.kv("threads", static_cast<std::int64_t>(report.config.exec_threads));
    w.kv("tile", static_cast<std::int64_t>(report.config.exec_tile));
    w.kv("compiles", report.exec_compile.compiles);
    w.kv("cache_hits", report.exec_compile.cache_hits);
    w.kv("failures", report.exec_compile.failures);
    w.kv("quarantined", report.exec_compile.quarantined);
    w.end_object();

    w.key("jobs").begin_array();
    for (const auto& j : report.jobs) write_job(w, j, include_timings);
    w.end_array();

    w.key("breakers").begin_array();
    for (const auto& b : report.breakers) {
        w.begin_object();
        w.kv("class", b.klass);
        w.kv("state", to_string(b.state));
        w.kv("consecutive_failures", b.consecutive_failures);
        w.kv("trips", b.trips);
        w.kv("short_circuited", b.short_circuited);
        w.end_object();
    }
    w.end_array();

    if (include_timings) w.kv("wall_ms", report.wall_ms);
    w.end_object();
    return w.str();
}

namespace {

constexpr const char* kCheckpointHeader = "lfsvc-checkpoint v1";

/// write(2) until every byte is out, retrying interrupted calls.
bool write_all(int fd, const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

}  // namespace

bool append_checkpoint(const std::string& path, const JobRecord& rec) {
    if (faultpoint::triggered("svc.checkpoint")) return false;
    const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (fd < 0) return false;
    std::string bytes;
    struct stat st {};
    bool ok = ::fstat(fd, &st) == 0;
    if (ok && st.st_size == 0) {
        bytes = std::string(kCheckpointHeader) + '\n';
    } else if (ok) {
        char last = '\n';
        ok = ::pread(fd, &last, 1, st.st_size - 1) == 1;
        // A torn tail (a kill -9 mid-append, or outside damage): keep the
        // partial line -- load_checkpoint skips and counts it -- but
        // terminate it so the new record starts on its own line.
        if (last != '\n') bytes.push_back('\n');
    }
    bytes += rec.id;
    bytes += '\t';
    bytes += to_string(rec.status);
    bytes += '\t';
    bytes += std::to_string(rec.attempts.size());
    bytes += '\t';
    bytes += rec.algorithm;
    bytes += '\n';
    ok = ok && write_all(fd, bytes);
    ok = ok && ::fsync(fd) == 0;
    ok = ::close(fd) == 0 && ok;
    return ok;
}

std::vector<CheckpointEntry> load_checkpoint(const std::string& path, int* malformed) {
    std::vector<CheckpointEntry> entries;
    std::unordered_map<std::string, std::size_t> index;  // id -> entries slot
    if (malformed != nullptr) *malformed = 0;
    std::ifstream in(path);
    if (!in.good()) return entries;
    const auto count_malformed = [malformed] {
        if (malformed != nullptr) ++*malformed;
    };
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line == kCheckpointHeader || line.front() == '#') continue;
        if (in.eof()) {
            // No '\n' after the last line: a writer died mid-append, so even
            // fields that parse may be cut short.
            count_malformed();
            continue;
        }
        std::istringstream fields(line);
        CheckpointEntry e;
        std::string status;
        std::string attempts;
        if (!std::getline(fields, e.id, '\t') || !std::getline(fields, status, '\t') ||
            !std::getline(fields, attempts, '\t')) {
            count_malformed();  // truncated / malformed line: skip
            continue;
        }
        std::getline(fields, e.algorithm, '\t');  // optional (may be empty)
        if (status == "verified") {
            e.status = JobStatus::Verified;
        } else if (status == "quarantined") {
            e.status = JobStatus::Quarantined;
        } else {
            count_malformed();  // unknown terminal state: ignore the record
            continue;
        }
        try {
            e.attempts = std::stoi(attempts);
        } catch (const std::exception&) {
            count_malformed();
            continue;
        }
        // Last record for an id wins (a resumed run may have re-finished a
        // job the killed run also finished).
        const auto [it, fresh] = index.try_emplace(e.id, entries.size());
        if (fresh) {
            entries.push_back(std::move(e));
        } else {
            entries[it->second] = std::move(e);
        }
    }
    return entries;
}

}  // namespace lf::svc
