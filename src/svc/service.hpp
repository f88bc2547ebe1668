#pragma once
// The concurrent fusion service: named MLDG jobs planned through
// try_plan_fusion, hardened for batch and always-on operation.
//
// The paper's point is that all three fusion algorithms are polynomial --
// cheap enough to run as an always-on compilation service. This layer
// supplies the service half of that claim:
//
//   * one per-job entry point, run_job(), that carries a job through the
//     breaker, plan cache, ladder and admission gate to its verdict; the
//     network edge (net/server.hpp) calls it from its persistent workers,
//     and run() calls it from a pool started per manifest (job order in
//     the report is manifest order, independent of scheduling);
//   * every planning attempt runs under a ResourceGuard step budget and a
//     per-job wall-clock deadline;
//   * ResourceExhausted and fault-injected (Internal) failures are retried
//     with exponentially escalated step budgets, up to
//     RetryPolicy::max_attempts;
//   * a per-workload-class circuit breaker (svc/breaker.hpp) opens after K
//     consecutive full-ladder failures and short-circuits the class to the
//     loop-distribution fallback;
//   * the admission gate (svc/gate.hpp) independently certifies and
//     differentially replays every plan before a job may end Verified;
//     anything else ends Quarantined with its StageReport trace;
//   * a bounded content-addressed plan cache (svc/plancache.hpp) memoizes
//     admitted plans: structurally identical jobs skip the ladder (the
//     cheap certify check still runs); fault-armed and distribution-only
//     jobs bypass it entirely;
//   * every worker thread owns a PlannerWorkspace
//     (graph/solver_workspace.hpp), so steady-state planning is
//     allocation-free and consecutive ladder rungs warm-start each other;
//   * every finished job appends one line to the checkpoint manifest
//     (svc/report.hpp); run() restores from it, so a killed manifest run
//     resumes without redoing verified jobs.
//
// Neither run() nor run_job() throws for job-level failures; one poisoned
// workload ends one Quarantined record, never the batch or the server.

#include <cstdint>
#include <string>
#include <vector>

#include "exec/compile.hpp"
#include "svc/breaker.hpp"
#include "svc/job.hpp"
#include "svc/plancache.hpp"

namespace lf {
struct PlannerWorkspace;
}  // namespace lf

namespace lf::svc {

struct RetryPolicy {
    /// Total planning attempts per job (first try + retries).
    int max_attempts = 3;
    /// Step budget of the first attempt; each retry multiplies the budget
    /// by `escalation` (saturating). kUnlimitedSteps disables metering.
    std::uint64_t initial_steps = std::uint64_t{1} << 14;
    /// Budget multiplier per retry (>= 1).
    int escalation = 8;
    /// Per-job wall-clock deadline in milliseconds across *all* of the
    /// job's attempts; negative = unlimited. An expired deadline fails the
    /// attempt with ResourceExhausted and forbids further retries.
    std::int64_t deadline_ms = -1;
};

struct ServiceConfig {
    /// Worker threads (clamped to >= 1).
    int workers = 4;
    RetryPolicy retry;
    BreakerConfig breaker;
    /// Checkpoint manifest path; empty disables checkpointing. Every
    /// finished job appends its verdict. An existing checkpoint is loaded
    /// by run() (never by run_job()): jobs it records as Verified are
    /// restored (from_checkpoint = true) and not redone.
    std::string checkpoint_path;
    /// Plan-cache capacity in resident plans (svc/plancache.hpp); 0
    /// disables the cache (every job records cache = bypass).
    std::size_t plan_cache_capacity = 128;
    /// Directory of the persistent plan tier (svc/plancache.hpp); empty
    /// disables it. Admitted plans are written there atomically and reloaded
    /// lazily on memory misses, so warm state survives a kill -9.
    std::string plan_store_dir;
    /// Opt-in native-execution admission (exec/native.hpp): before a job may
    /// end Verified, its emitted C kernel is compiled, run in the forked
    /// sandbox, and differential-checked against the interpreter. A failure
    /// outcome (crash / timeout / mismatch / compile error) quarantines the
    /// job -- contained, the service survives; a missing compiler degrades
    /// gracefully to NativeOutcome::Unavailable (the job still verifies).
    bool native_exec = false;
    /// Compile-cache directory for native_exec. Empty with a plan_store_dir
    /// set defaults to "<plan_store_dir>/objects", so pointing --store at a
    /// directory gives the object tier the same kill-9 persistence as the
    /// plan tier (warm restarts recompile nothing). Empty without a store:
    /// a fresh per-run mkdtemp.
    std::string native_cache_dir;
    /// Sandbox wall-clock watchdog for native kernel runs (ms).
    std::int64_t native_wall_ms = 10'000;
    /// Lanes for the ABI v2 parallel admission run (exec/native.hpp):
    /// <= 1 runs only the serial kernel entry; > 1 additionally runs
    /// lf_kernel_run_par with this thread count and quarantines on any
    /// divergence from the serial kernel or the interpreter. One compiled
    /// object serves every thread count -- this knob never re-keys the
    /// object cache.
    int exec_threads = 1;
    /// Scheduler tile for the parallel run (iterations per tile; <= 0 lets
    /// the kernel pick ceil(round / lanes)).
    int exec_tile = 0;
    /// Rounds narrower than this run whole on lane 0 (parallel run only).
    std::int64_t exec_serial_cutoff = 0;
    /// Jobs a run() worker pulls from the manifest at once. Chunks of
    /// eligible 2-D jobs (first attempt, no deadline, closed breaker, not
    /// cached, no fault armed) are pre-planned through
    /// try_plan_fusion_batch, so jobs sharing a constraint skeleton solve in
    /// lockstep; per-job results are bit-identical to sequential planning.
    /// 1 disables batching. run_job() plans one job at a time and never
    /// forms a chunk.
    int plan_batch = 8;
    /// Incremental re-planning: a cache miss whose graph differs from a
    /// cached entry on at most this many edges' dependence-vector sets
    /// warm-starts the ladder from that entry's stored distances
    /// (PlanCache::near_miss_hints). 0 disables delta re-planning.
    int delta_max_edges = 4;
    /// Planning objective (fusion/driver.hpp) applied to every job: the
    /// default reproduces the pre-policy service bit-for-bit (plans, cache
    /// keys, reports); SmallestCode additionally runs the magnitude
    /// post-pass and keys the cache per policy.
    PlanPolicy plan_policy = PlanPolicy::FastestSchedule;
};

struct RunCounts {
    int verified = 0;
    int quarantined = 0;
    int from_checkpoint = 0;
    /// Jobs whose final attempt was short-circuited by the breaker.
    int short_circuited = 0;
    /// Per-job plan-cache outcomes (hit + miss + bypass = jobs).
    int cache_hits = 0;
    int cache_misses = 0;
    int cache_bypasses = 0;
    /// Native-execution outcomes (all zero unless native_exec was on):
    /// jobs whose kernel ran and matched, jobs quarantined by a contained
    /// native failure, and jobs that skipped natively (graph-only, unfused
    /// fallback, or no compiler on PATH).
    int native_verified = 0;
    int native_contained = 0;
    int native_skipped = 0;
};

struct RunReport {
    ServiceConfig config;
    /// One record per job, in manifest order.
    std::vector<JobRecord> jobs;
    std::vector<BreakerSnapshot> breakers;
    /// Checkpoint appends that failed (IO error or injected svc.checkpoint
    /// fault); the run continues, resume just redoes those jobs.
    int checkpoint_failures = 0;
    /// Malformed/truncated manifest lines skipped while restoring the
    /// checkpoint (a killed writer's torn tail, manual edits); the affected
    /// jobs are simply redone.
    int checkpoint_malformed = 0;
    /// Plan-cache counters at the end of the run (cumulative across every
    /// run() of the same FusionService -- the cache persists between runs).
    PlanCacheStats plancache;
    std::size_t plancache_size = 0;
    /// Kernel-compiler counters at the end of the run (cumulative across
    /// every run() of the same FusionService; all zero without native_exec).
    exec::CompileStats exec_compile;
    std::int64_t wall_ms = 0;

    [[nodiscard]] RunCounts counts() const;
};

class FusionService {
  public:
    explicit FusionService(ServiceConfig config = {});

    /// Drives every job to a terminal state (Verified | Quarantined) and
    /// returns the full report: restores verified jobs from the checkpoint,
    /// then runs the rest through run_job's path on `config.workers`
    /// threads. Job ids must be unique (lf::Error otherwise -- a manifest
    /// bug, not a job failure).
    [[nodiscard]] RunReport run(const std::vector<JobSpec>& jobs);

    /// Drives one job to its terminal state and returns its record: breaker
    /// admission, plan-cache lookup, retries with escalated budgets, the
    /// admission gate, cache insert and checkpoint append -- everything
    /// run() does per job except the chunk prepass and the checkpoint
    /// restore. Thread-safe; each concurrent caller passes its own
    /// workspace, which it may keep across calls. Ids need not be unique
    /// across calls, but a checkpointed id is what a later run() restores.
    [[nodiscard]] JobRecord run_job(const JobSpec& job, PlannerWorkspace& ws);

    /// Cumulative plan-cache counters (across every run() of this service;
    /// includes the persistent tier's disk_* counters). For the network
    /// edge's drills and stats endpoints.
    [[nodiscard]] PlanCacheStats plancache_stats() const { return plan_cache_.stats(); }

    /// Persistent-tier path of `key`'s plan file (empty plan_store_dir =
    /// no persistent tier). Exposed for drills that corrupt entries.
    [[nodiscard]] std::string plan_file_path(std::uint64_t key) const {
        return plan_cache_.plan_path(key);
    }

    /// Cumulative kernel-compiler counters (zero without native_exec).
    [[nodiscard]] exec::CompileStats exec_stats() const { return native_compiler_.stats(); }

  private:
    /// A first-attempt plan computed ahead of process_job by the chunk
    /// prepass. `result` engaged = consumable; process_job takes it instead
    /// of calling try_plan_fusion, under exactly the options the prepass
    /// used (verified by the eligibility rules in prepass_chunk).
    struct PrePlanned {
        std::optional<Result<FusionPlan>> result;
        LadderArtifacts artifacts;
    };

    /// Batch-plans the eligible jobs of [begin, end) into `pre` (indexed
    /// begin-relative) via try_plan_fusion_batch, attaching near-miss
    /// delta-solve hints from the plan cache. Ineligible jobs (N-D,
    /// checkpointed, deadline set, open breaker, already cached, any fault
    /// point armed) are left for the sequential path; so is everything if
    /// fewer than two jobs are eligible or the batch planner throws.
    void prepass_chunk(const std::vector<JobSpec>& jobs, const std::vector<JobRecord>& recs,
                       std::size_t begin, std::size_t end, std::vector<PrePlanned>& pre,
                       PlannerWorkspace& ws);
    void process_job(const JobSpec& job, JobRecord& rec, PlannerWorkspace& ws,
                     PrePlanned* pre = nullptr);
    /// Depth-d jobs (JobSpec::depth > 2): plan_fusion_nd + the N-D gate,
    /// under the same retry / breaker / cache / checkpoint machinery.
    void process_job_nd(const JobSpec& job, JobRecord& rec, PlannerWorkspace& ws);
    void checkpoint_job(const JobRecord& rec);
    /// Native-execution admission step (NotRun when native_exec is off,
    /// Skipped for graph-only jobs). Fills the record's native_* fields and
    /// returns whether the job may still verify.
    bool native_admit(const JobSpec& job, const FusionPlan& plan, JobRecord& rec,
                      AttemptRecord& att);
    bool native_admit_nd(const JobSpec& job, const NdFusionPlan& plan, JobRecord& rec,
                         AttemptRecord& att);
    /// The PlanOptions every planning path and cache-key computation derives
    /// from the config. One construction site keeps the prepass, the
    /// sequential path, and both key_of calls agreeing on the policy.
    [[nodiscard]] PlanOptions plan_options() const {
        PlanOptions o;
        o.policy = config_.plan_policy;
        return o;
    }

    ServiceConfig config_;
    CircuitBreakerBank breakers_;
    PlanCache plan_cache_;
    exec::KernelCompiler native_compiler_;
    std::mutex checkpoint_mutex_;
    int checkpoint_failures_ = 0;
};

}  // namespace lf::svc
