// The concurrent fusion service end to end: worker pool, deadlines,
// retry-with-escalation, per-class circuit breaking, the verified-plan
// admission gate, checkpoint/resume, and the JSON run report.
//
// The central contract, exercised from every angle: a job ends Verified
// only after independent certification AND (for executable jobs) a
// differential replay agree; everything else ends Quarantined with a
// non-empty StageReport trace; and no workload -- hostile, fault-injected
// or budget-starved -- ever takes down the batch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "fusion/certify.hpp"
#include "fusion/driver.hpp"
#include "ldg/serialization.hpp"
#include "support/faultpoint.hpp"
#include "svc/gate.hpp"
#include "svc/manifest.hpp"
#include "svc/report.hpp"
#include "svc/service.hpp"
#include "workloads/gallery.hpp"
#include "workloads/sources.hpp"

namespace lf::svc {
namespace {

class SvcTest : public ::testing::Test {
  protected:
    void SetUp() override { faultpoint::reset(); }
    void TearDown() override { faultpoint::reset(); }

    static std::string temp_path(const std::string& name) {
        return ::testing::TempDir() + name;
    }
};

const JobRecord* find_job(const RunReport& report, const std::string& id) {
    for (const auto& j : report.jobs) {
        if (j.id == id) return &j;
    }
    return nullptr;
}

/// The acceptance invariant: terminal state, and quarantines carry traces.
void expect_terminal(const RunReport& report, const std::string& context) {
    for (const auto& job : report.jobs) {
        EXPECT_TRUE(job.status == JobStatus::Verified || job.status == JobStatus::Quarantined)
            << context << ": job " << job.id << " ended " << to_string(job.status);
        if (job.status == JobStatus::Quarantined) {
            EXPECT_FALSE(job.final_trace().empty())
                << context << ": job " << job.id << " quarantined without a trace";
            EXPECT_FALSE(job.quarantine_reason.empty()) << context << ": job " << job.id;
        }
    }
}

// ---------------------------------------------------------------------------
// Healthy path.
// ---------------------------------------------------------------------------

TEST_F(SvcTest, FullGalleryVerifiesCleanly) {
    ServiceConfig config;
    config.workers = 4;
    FusionService service(config);
    const RunReport report = service.run(full_gallery_jobs());

    ASSERT_EQ(report.jobs.size(), 9u);
    const RunCounts counts = report.counts();
    EXPECT_EQ(counts.verified, 9);
    EXPECT_EQ(counts.quarantined, 0);
    EXPECT_EQ(counts.short_circuited, 0);
    for (const auto& job : report.jobs) {
        EXPECT_EQ(job.status, JobStatus::Verified) << job.id;
        EXPECT_TRUE(job.certified) << job.id;
        EXPECT_EQ(job.attempts.size(), 1u) << job.id;
        EXPECT_GT(job.total_budget_spent, 0u) << job.id;
        EXPECT_FALSE(job.algorithm.empty()) << job.id;
    }
    // fig14 is graph-only: certified, replay skipped. Every other job
    // replays differentially.
    const JobRecord* fig14 = find_job(report, "fig14");
    ASSERT_NE(fig14, nullptr);
    EXPECT_EQ(fig14->replay, ReplayOutcome::Skipped);
    for (const auto& job : report.jobs) {
        if (job.id != "fig14") {
            EXPECT_EQ(job.replay, ReplayOutcome::Ok) << job.id;
        }
    }
    // Clean run: every breaker closed, nothing tripped.
    for (const auto& b : report.breakers) {
        EXPECT_EQ(b.state, BreakerState::Closed) << b.klass;
        EXPECT_EQ(b.trips, 0u) << b.klass;
    }
}

// ---------------------------------------------------------------------------
// Retry with escalated budgets.
// ---------------------------------------------------------------------------

TEST_F(SvcTest, StarvedBudgetEscalatesUntilVerified) {
    // fig14 is schedulable but not program-model legal, so the
    // loop-distribution fallback cannot rescue it: a starved budget is a
    // genuine ResourceExhausted failure, and only escalation fixes it.
    std::vector<JobSpec> jobs;
    for (const auto& w : workloads::paper_workloads()) {
        if (w.id == "fig14") {
            JobSpec job;
            job.id = w.id;
            job.klass = "paper";
            job.graph = w.graph;
            jobs.push_back(std::move(job));
        }
    }
    ASSERT_EQ(jobs.size(), 1u);

    ServiceConfig config;
    config.workers = 1;
    config.retry.max_attempts = 5;
    config.retry.initial_steps = 2;  // hopeless: validation alone needs more
    config.retry.escalation = 32;
    FusionService service(config);
    const RunReport report = service.run(jobs);

    ASSERT_EQ(report.jobs.size(), 1u);
    const JobRecord& job = report.jobs[0];
    EXPECT_EQ(job.status, JobStatus::Verified) << job.quarantine_reason;
    ASSERT_GE(job.attempts.size(), 2u);
    EXPECT_EQ(job.attempts.front().code, StatusCode::ResourceExhausted);
    // Budgets escalate geometrically: 2, 64, 2048, ...
    for (std::size_t k = 0; k < job.attempts.size(); ++k) {
        std::uint64_t expected = 2;
        for (std::size_t e = 0; e < k; ++e) expected *= 32;
        EXPECT_EQ(job.attempts[k].max_steps, expected) << "attempt " << k;
    }
    EXPECT_EQ(job.attempts.back().code, StatusCode::Ok);
}

TEST_F(SvcTest, PersistentFaultExhaustsAttemptsAndQuarantines) {
    faultpoint::arm("svc.plan");
    ServiceConfig config;
    config.workers = 1;
    config.retry.max_attempts = 3;
    config.breaker.failure_threshold = 0;  // isolate the retry logic
    FusionService service(config);
    const RunReport report = service.run(gallery_jobs());

    for (const auto& job : report.jobs) {
        EXPECT_EQ(job.status, JobStatus::Quarantined) << job.id;
        EXPECT_EQ(job.attempts.size(), 3u) << job.id;  // capped attempts
        for (const auto& att : job.attempts) EXPECT_EQ(att.code, StatusCode::Internal);
        EXPECT_FALSE(job.final_trace().empty()) << job.id;
    }
    EXPECT_GE(faultpoint::hits("svc.plan"), 15u);  // 5 jobs x 3 attempts
}

TEST_F(SvcTest, ExpiredDeadlineForbidsRetries) {
    // A zero deadline expires before the first consume: the attempt fails
    // ResourceExhausted and -- the deadline being a *job* budget -- no
    // retry is allowed, however many attempts the policy grants.
    std::vector<JobSpec> jobs;
    jobs.push_back(job_from_mldg_text("fig14", serialize_mldg(workloads::fig14_graph())));

    ServiceConfig config;
    config.workers = 1;
    config.retry.max_attempts = 5;
    config.retry.deadline_ms = 0;
    FusionService service(config);
    const RunReport report = service.run(jobs);

    ASSERT_EQ(report.jobs.size(), 1u);
    const JobRecord& job = report.jobs[0];
    EXPECT_EQ(job.status, JobStatus::Quarantined);
    EXPECT_EQ(job.attempts.size(), 1u);
    EXPECT_EQ(job.attempts.front().code, StatusCode::ResourceExhausted);
}

// ---------------------------------------------------------------------------
// Admission gate.
// ---------------------------------------------------------------------------

TEST_F(SvcTest, ReplayMismatchQuarantinesWithoutRetry) {
    faultpoint::arm("svc.verify.replay");
    ServiceConfig config;
    config.workers = 1;
    FusionService service(config);
    const RunReport report = service.run(gallery_jobs());

    expect_terminal(report, "replay-fault");
    for (const auto& job : report.jobs) {
        if (job.id == "fig14") {
            // Graph-only: no replay to corrupt.
            EXPECT_EQ(job.status, JobStatus::Verified);
            EXPECT_EQ(job.replay, ReplayOutcome::Skipped);
            continue;
        }
        EXPECT_EQ(job.status, JobStatus::Quarantined) << job.id;
        EXPECT_EQ(job.replay, ReplayOutcome::Mismatch) << job.id;
        // A mismatch is a wrong plan, not a transient: exactly one attempt.
        EXPECT_EQ(job.attempts.size(), 1u) << job.id;
        EXPECT_TRUE(job.certified) << job.id;  // certification passed first
        const auto& trace = job.final_trace();
        const bool has_replay_stage =
            std::any_of(trace.begin(), trace.end(), [](const StageReport& s) {
                return s.stage == "admit.replay" && s.code != StatusCode::Ok;
            });
        EXPECT_TRUE(has_replay_stage) << job.id;
    }
}

TEST_F(SvcTest, CertifyFaultQuarantinesEveryJob) {
    faultpoint::arm("svc.verify.certify");
    ServiceConfig config;
    config.workers = 2;
    FusionService service(config);
    const RunReport report = service.run(gallery_jobs());

    expect_terminal(report, "certify-fault");
    for (const auto& job : report.jobs) {
        EXPECT_EQ(job.status, JobStatus::Quarantined) << job.id;
        EXPECT_FALSE(job.certified) << job.id;
        EXPECT_NE(job.quarantine_reason.find("certification failed"), std::string::npos)
            << job.id << ": " << job.quarantine_reason;
    }
}

TEST_F(SvcTest, GateAdmitsDistributionFallbackViaDistributedReplay) {
    // The gate's replay path for unfused plans executes the *distributed*
    // program -- fuse_program would (rightly) reject the plan.
    JobSpec job = job_from_dsl_text("fig2", std::string(workloads::sources::kFig2), "paper");

    TryPlanOptions opts;
    opts.distribution_only = true;
    const auto result = try_plan_fusion(job.graph, opts);
    ASSERT_TRUE(result.ok()) << result.status().str();
    ASSERT_EQ(result->algorithm, AlgorithmUsed::DistributionFallback);

    // certify_plan understands the unfused contract (U1-U4)...
    const PlanCertificate cert = certify_plan(job.graph, *result);
    EXPECT_TRUE(cert.valid) << (cert.violations.empty() ? "" : cert.violations.front());

    // ...and the full gate admits it.
    const GateResult gate = admit_plan(job, *result);
    EXPECT_TRUE(gate.admitted) << gate.detail;
    EXPECT_TRUE(gate.certified);
    EXPECT_EQ(gate.replay, ReplayOutcome::Ok);
}

TEST_F(SvcTest, GateRejectsTamperedPlan) {
    JobSpec job = job_from_dsl_text("fig2", std::string(workloads::sources::kFig2), "paper");
    auto result = try_plan_fusion(job.graph);
    ASSERT_TRUE(result.ok());
    FusionPlan plan = std::move(result).value();
    plan.retiming.of(1) = Vec2{-7, 3};  // tamper: stale retimed graph

    const GateResult gate = admit_plan(job, plan);
    EXPECT_FALSE(gate.admitted);
    EXPECT_FALSE(gate.certified);
    EXPECT_FALSE(gate.retryable);  // wrong plan, not transient
    EXPECT_NE(gate.detail.find("certification failed"), std::string::npos) << gate.detail;
}

// ---------------------------------------------------------------------------
// Circuit breaker.
// ---------------------------------------------------------------------------

TEST_F(SvcTest, BreakerOpensAndShortCircuitsToFallback) {
    // codegen.fuse makes every *fused* replay abort (retryable), while the
    // distribution fallback replays the distributed program and stays
    // healthy: exactly the poisoned-class scenario the breaker exists for.
    faultpoint::arm("codegen.fuse");
    std::vector<JobSpec> jobs;
    for (int k = 0; k < 6; ++k) {
        jobs.push_back(job_from_dsl_text("fig2-" + std::to_string(k),
                                         std::string(workloads::sources::kFig2), "poison"));
    }

    ServiceConfig config;
    config.workers = 1;  // deterministic breaker interleaving
    config.retry.max_attempts = 3;
    config.breaker.failure_threshold = 2;
    config.breaker.probe_interval = 100;  // no probes within this test
    FusionService service(config);
    const RunReport report = service.run(jobs);

    expect_terminal(report, "breaker");
    // Job 0: two full-ladder attempts fail (tripping the breaker at
    // threshold 2), the third is short-circuited to the fallback and
    // verifies.
    const JobRecord& first = report.jobs[0];
    EXPECT_EQ(first.status, JobStatus::Verified);
    ASSERT_EQ(first.attempts.size(), 3u);
    EXPECT_FALSE(first.attempts[0].short_circuited);
    EXPECT_FALSE(first.attempts[1].short_circuited);
    EXPECT_TRUE(first.attempts[2].short_circuited);
    EXPECT_EQ(first.algorithm, to_string(AlgorithmUsed::DistributionFallback));
    // Every later job short-circuits immediately.
    for (std::size_t k = 1; k < report.jobs.size(); ++k) {
        const JobRecord& job = report.jobs[k];
        EXPECT_EQ(job.status, JobStatus::Verified) << job.id;
        ASSERT_EQ(job.attempts.size(), 1u) << job.id;
        EXPECT_TRUE(job.attempts[0].short_circuited) << job.id;
        EXPECT_EQ(job.level, to_string(ParallelismLevel::Unfused)) << job.id;
    }

    ASSERT_EQ(report.breakers.size(), 1u);
    const BreakerSnapshot& breaker = report.breakers[0];
    EXPECT_EQ(breaker.klass, "poison");
    EXPECT_EQ(breaker.state, BreakerState::Open);
    EXPECT_EQ(breaker.trips, 1u);
    EXPECT_EQ(breaker.short_circuited, 6u);  // job0 attempt 3 + jobs 1-5
}

TEST_F(SvcTest, BreakerProbeClosesAfterRecovery) {
    faultpoint::arm("codegen.fuse");
    std::vector<JobSpec> jobs;
    for (int k = 0; k < 2; ++k) {
        jobs.push_back(job_from_dsl_text("fig2-" + std::to_string(k),
                                         std::string(workloads::sources::kFig2), "poison"));
    }

    ServiceConfig config;
    config.workers = 1;
    config.retry.max_attempts = 2;
    config.breaker.failure_threshold = 2;
    config.breaker.probe_interval = 1;  // every open admission is a probe
    FusionService service(config);

    const RunReport sick = service.run(jobs);
    // With every admission probing at full strength, the poisoned class
    // keeps failing: both jobs quarantine.
    for (const auto& job : sick.jobs) {
        EXPECT_EQ(job.status, JobStatus::Quarantined) << job.id;
    }
    ASSERT_EQ(sick.breakers.size(), 1u);
    EXPECT_NE(sick.breakers[0].state, BreakerState::Closed);

    // The fault clears; the service (breaker state persists across runs of
    // one service instance) probes, verifies, and closes the breaker.
    faultpoint::reset();
    const RunReport healthy = service.run(jobs);
    for (const auto& job : healthy.jobs) {
        EXPECT_EQ(job.status, JobStatus::Verified) << job.id;
    }
    ASSERT_EQ(healthy.breakers.size(), 1u);
    EXPECT_EQ(healthy.breakers[0].state, BreakerState::Closed);
    EXPECT_EQ(healthy.breakers[0].consecutive_failures, 0);
}

// ---------------------------------------------------------------------------
// Checkpoint / resume.
// ---------------------------------------------------------------------------

TEST_F(SvcTest, CheckpointResumeSkipsVerifiedJobs) {
    const std::string path = temp_path("svc_resume.ckpt");
    std::remove(path.c_str());

    ServiceConfig config;
    config.workers = 2;
    config.checkpoint_path = path;

    {
        FusionService service(config);
        const RunReport report = service.run(full_gallery_jobs());
        EXPECT_EQ(report.counts().verified, 9);
        EXPECT_EQ(report.counts().from_checkpoint, 0);
        EXPECT_EQ(report.checkpoint_failures, 0);
    }
    EXPECT_EQ(load_checkpoint(path).size(), 9u);

    // A second run (fresh service, same manifest) redoes nothing.
    {
        FusionService service(config);
        const RunReport report = service.run(full_gallery_jobs());
        EXPECT_EQ(report.counts().verified, 9);
        EXPECT_EQ(report.counts().from_checkpoint, 9);
        for (const auto& job : report.jobs) {
            EXPECT_TRUE(job.from_checkpoint) << job.id;
            EXPECT_TRUE(job.attempts.empty()) << job.id;  // no work redone
            EXPECT_FALSE(job.algorithm.empty()) << job.id;  // rung restored
        }
    }
    std::remove(path.c_str());
}

TEST_F(SvcTest, CheckpointToleratesCorruptLinesAndQuarantines) {
    const std::string path = temp_path("svc_corrupt.ckpt");
    std::remove(path.c_str());
    {
        std::ofstream out(path);
        out << "lfsvc-checkpoint v1\n"
            << "garbage line without tabs\n"
            << "fig8\tverified\t1\tAlgorithm 3 (acyclic)\n"
            << "fig2\tquarantined\t3\t\n"          // quarantined: must be redone
            << "fig2\tverified\tnot-a-number\tx\n"  // malformed count: skipped
            << "truncated\tverified\n";             // missing fields: skipped
    }
    const auto entries = load_checkpoint(path);
    // Only the two well-formed terminal records survive parsing.
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].id, "fig8");
    EXPECT_EQ(entries[0].status, JobStatus::Verified);
    EXPECT_EQ(entries[1].id, "fig2");
    EXPECT_EQ(entries[1].status, JobStatus::Quarantined);

    ServiceConfig config;
    config.workers = 1;
    config.checkpoint_path = path;
    FusionService service(config);
    const RunReport report = service.run(gallery_jobs());
    const JobRecord* fig8 = find_job(report, "fig8");
    const JobRecord* fig2 = find_job(report, "fig2");
    ASSERT_NE(fig8, nullptr);
    ASSERT_NE(fig2, nullptr);
    EXPECT_TRUE(fig8->from_checkpoint);
    EXPECT_FALSE(fig2->from_checkpoint);  // quarantined records are redone
    EXPECT_EQ(fig2->status, JobStatus::Verified);
    std::remove(path.c_str());
}

TEST_F(SvcTest, CheckpointMalformedLineCountSurfacesInTheReport) {
    const std::string path = temp_path("svc_malformed_count.ckpt");
    std::remove(path.c_str());
    {
        std::ofstream out(path);
        out << "lfsvc-checkpoint v1\n"
            << "no tabs at all\n"                    // truncated fields
            << "fig8\tverified\t1\tAlgorithm 3 (acyclic)\n"
            << "fig2\texploded\t1\tx\n"              // unknown terminal state
            << "fig2\tverified\tNaN\tx\n"            // non-numeric attempts
            << "torn\tverified";                     // killed writer's tail
    }
    int malformed = -1;
    const auto entries = load_checkpoint(path, &malformed);
    EXPECT_EQ(entries.size(), 1u);
    EXPECT_EQ(malformed, 4);

    ServiceConfig config;
    config.workers = 1;
    config.checkpoint_path = path;
    FusionService service(config);
    const RunReport report = service.run(gallery_jobs());
    EXPECT_EQ(report.checkpoint_malformed, 4);
    const std::string json = report_to_json(report, false);
    EXPECT_NE(json.find("\"checkpoint_malformed\": 4"), std::string::npos);

    // The run appended one well-formed record per job (terminating the
    // torn tail first, so no new damage), and the pre-existing damaged
    // lines are preserved as evidence -- still skipped, still counted,
    // never silently dropped.
    int after = -1;
    const auto resumed = load_checkpoint(path, &after);
    EXPECT_EQ(resumed.size(), report.jobs.size());
    EXPECT_EQ(after, 4);
    std::remove(path.c_str());
}

TEST_F(SvcTest, CheckpointAppendTerminatesATornTailAtomically) {
    const std::string path = temp_path("svc_torn_tail.ckpt");
    std::remove(path.c_str());
    {
        std::ofstream out(path);
        out << "lfsvc-checkpoint v1\n"
            << "fig8\tverified\t1\tAlgorithm 3 (acyclic)\n"
            << "fig2\tveri";  // the byte stream a kill -9 mid-write leaves
    }
    JobRecord rec;
    rec.id = "jacobi";
    rec.status = JobStatus::Verified;
    rec.algorithm = "Algorithm 3 (acyclic)";
    ASSERT_TRUE(append_checkpoint(path, rec));

    int malformed = -1;
    const auto entries = load_checkpoint(path, &malformed);
    ASSERT_EQ(entries.size(), 2u);  // fig8 + jacobi; the torn line is skipped
    EXPECT_EQ(entries[0].id, "fig8");
    EXPECT_EQ(entries[1].id, "jacobi");
    EXPECT_EQ(malformed, 1) << "the torn tail is counted, not silently eaten";
    std::remove(path.c_str());
}

std::string read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST_F(SvcTest, CheckpointAppendsNeverRewriteEarlierBytes) {
    const std::string path = temp_path("svc_append_only.ckpt");
    std::remove(path.c_str());
    JobRecord rec;
    rec.status = JobStatus::Verified;
    rec.algorithm = "Algorithm 3 (acyclic)";
    std::string before;
    for (int i = 0; i < 20; ++i) {
        rec.id = "job-" + std::to_string(i);
        ASSERT_TRUE(append_checkpoint(path, rec));
        const std::string after = read_bytes(path);
        ASSERT_GT(after.size(), before.size());
        EXPECT_EQ(after.compare(0, before.size(), before), 0)
            << "append " << i << " changed bytes an earlier append wrote";
        EXPECT_EQ(after.substr(before.size()),
                  (i == 0 ? std::string("lfsvc-checkpoint v1\n") : std::string()) + rec.id +
                      "\tverified\t0\tAlgorithm 3 (acyclic)\n");
        before = after;
    }

    // A kill -9 mid-append tears the last line. Restoring skips and counts
    // the unterminated line even where its fields happen to parse.
    for (const std::size_t cut : {std::size_t{9}, std::size_t{30}}) {
        std::filesystem::resize_file(path, before.size() - cut);
        int malformed = -1;
        const auto entries = load_checkpoint(path, &malformed);
        ASSERT_EQ(entries.size(), 19u) << "cut " << cut;
        EXPECT_EQ(entries.back().id, "job-18");
        EXPECT_EQ(malformed, 1);
    }

    // The next append keeps the torn bytes, terminates them, and writes its
    // record after them.
    const std::string torn = before.substr(0, before.size() - 30);  // "job-19\tver"
    rec.id = "job-after-tear";
    ASSERT_TRUE(append_checkpoint(path, rec));
    EXPECT_EQ(read_bytes(path),
              torn + "\n" + rec.id + "\tverified\t0\tAlgorithm 3 (acyclic)\n");
    int malformed = -1;
    const auto entries = load_checkpoint(path, &malformed);
    ASSERT_EQ(entries.size(), 20u);
    EXPECT_EQ(entries[18].id, "job-18");
    EXPECT_EQ(entries.back().id, "job-after-tear");
    EXPECT_EQ(malformed, 1);
    std::remove(path.c_str());
}

TEST_F(SvcTest, CheckpointWriteFaultDegradesToWarning) {
    faultpoint::arm("svc.checkpoint");
    const std::string path = temp_path("svc_faulty.ckpt");
    std::remove(path.c_str());

    ServiceConfig config;
    config.workers = 1;
    config.checkpoint_path = path;
    FusionService service(config);
    const RunReport report = service.run(gallery_jobs());

    // Jobs still verify; only the manifest is lost.
    EXPECT_EQ(report.counts().verified, 5);
    EXPECT_EQ(report.checkpoint_failures, 5);
    EXPECT_TRUE(load_checkpoint(path).empty());
    EXPECT_EQ(faultpoint::hits("svc.checkpoint"), 5u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Report determinism and structure.
// ---------------------------------------------------------------------------

TEST_F(SvcTest, ReportIsDeterministicModuloTimings) {
    // Same manifest, same config, same armed fault, single worker: the
    // timing-stripped JSON must match byte for byte -- including breaker
    // activity and retry traces.
    faultpoint::arm("codegen.fuse");
    auto run_once = [] {
        ServiceConfig config;
        config.workers = 1;
        config.retry.max_attempts = 2;
        config.breaker.failure_threshold = 2;
        FusionService service(config);
        return report_to_json(service.run(full_gallery_jobs()), /*include_timings=*/false);
    };
    const std::string a = run_once();
    const std::string b = run_once();
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.find("wall_ms"), std::string::npos);
}

TEST_F(SvcTest, ReportCarriesRungBudgetAndBreakerFields) {
    ServiceConfig config;
    config.workers = 1;
    FusionService service(config);
    const std::string json = report_to_json(service.run(gallery_jobs()));
    for (const char* needle :
         {"\"service\"", "\"counts\"", "\"jobs\"", "\"breakers\"", "\"status\": \"verified\"",
          "\"algorithm\"", "\"budget_spent\"", "\"attempt_log\"", "\"stages\"",
          "\"state\": \"closed\"", "\"replay\": \"ok\"", "\"replay\": \"skipped\"",
          "\"wall_ms\""}) {
        EXPECT_NE(json.find(needle), std::string::npos) << needle;
    }
}

TEST_F(SvcTest, DuplicateJobIdsAreRejectedUpFront) {
    std::vector<JobSpec> jobs = gallery_jobs();
    jobs.push_back(jobs.front());
    FusionService service;
    EXPECT_THROW((void)service.run(jobs), Error);
}

TEST_F(SvcTest, ManifestValidatesIdsAndSources) {
    EXPECT_THROW((void)job_from_dsl_text("has space", std::string(workloads::sources::kFig2)),
                 Error);
    EXPECT_THROW((void)job_from_dsl_text("", std::string(workloads::sources::kFig2)), Error);
    EXPECT_THROW((void)job_from_dsl_text("bad", "program broken {"), Error);

    // Graph-only round trip through the serialization front end.
    const JobSpec job =
        job_from_mldg_text("fig14", serialize_mldg(workloads::fig14_graph(), "fig14"));
    EXPECT_EQ(job.graph.num_nodes(), workloads::fig14_graph().num_nodes());
    EXPECT_TRUE(job.dsl_source.empty());
}

// ---------------------------------------------------------------------------
// Depth-d jobs through the full pipeline.
// ---------------------------------------------------------------------------

TEST_F(SvcTest, DepthThreeJobPlansCertifiesAndCaches) {
    // A depth-3 source job runs the whole pipeline -- plan_fusion_nd,
    // N-D certification, differential replay -- and a structurally
    // identical twin is served from the plan cache.
    ServiceConfig config;
    config.workers = 1;  // deterministic processing order
    FusionService service(config);

    std::vector<JobSpec> jobs = nd_jobs();
    ASSERT_EQ(jobs.size(), 2u);
    JobSpec twin = jobs[0];
    twin.id = "volume3d-twin";
    jobs.push_back(std::move(twin));

    const RunReport report = service.run(jobs);
    expect_terminal(report, "nd");
    ASSERT_EQ(report.jobs.size(), 3u);

    const JobRecord* volume = find_job(report, "volume3d");
    ASSERT_NE(volume, nullptr);
    EXPECT_EQ(volume->status, JobStatus::Verified);
    EXPECT_EQ(volume->depth, 3);
    EXPECT_TRUE(volume->certified);
    EXPECT_EQ(volume->replay, ReplayOutcome::Ok);
    EXPECT_EQ(volume->cache, CacheOutcome::Miss);

    const JobRecord* hyper = find_job(report, "hyper4d");
    ASSERT_NE(hyper, nullptr);
    EXPECT_EQ(hyper->status, JobStatus::Verified);
    EXPECT_EQ(hyper->depth, 4);

    // The twin hits the cache: same plan, certified again, replay skipped.
    const JobRecord* cached = find_job(report, "volume3d-twin");
    ASSERT_NE(cached, nullptr);
    EXPECT_EQ(cached->status, JobStatus::Verified);
    EXPECT_EQ(cached->cache, CacheOutcome::Hit);
    EXPECT_EQ(cached->replay, ReplayOutcome::Skipped);
    EXPECT_EQ(cached->algorithm, volume->algorithm);
    EXPECT_TRUE(cached->certified);

    // Depth is visible per job in the JSON run report.
    const std::string json = report_to_json(report, /*include_timings=*/false);
    EXPECT_NE(json.find("\"depth\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"depth\": 4"), std::string::npos);
}

TEST_F(SvcTest, DslManifestAcceptsAnyDepth) {
    // job_from_dsl_text routes through the unified front end: a depth-3
    // source fills the N-D job fields, a 2-D source the classic ones.
    const JobSpec nd =
        job_from_dsl_text("vol", std::string(workloads::sources::kVolume3d));
    EXPECT_EQ(nd.depth, 3);
    EXPECT_EQ(nd.graph_nd.num_nodes(), 3);
    EXPECT_EQ(nd.extents_nd.size(), 3u);
    EXPECT_EQ(nd.graph.num_nodes(), 0);

    const JobSpec flat = job_from_dsl_text("fig2", std::string(workloads::sources::kFig2));
    EXPECT_EQ(flat.depth, 2);
    EXPECT_EQ(flat.graph.num_nodes(), 4);
    EXPECT_TRUE(flat.extents_nd.empty());
}

// ---------------------------------------------------------------------------
// The acceptance drill: every compiled-in fault point, in turn.
// ---------------------------------------------------------------------------

TEST_F(SvcTest, StormOverEveryFaultPointStaysTerminal) {
    for (const std::string& point : faultpoint::known_points()) {
        faultpoint::reset();
        faultpoint::arm(point);
        ServiceConfig config;
        config.workers = 2;
        config.retry.initial_steps = 8192;
        FusionService service(config);
        std::vector<JobSpec> jobs = full_gallery_jobs();
        std::vector<JobSpec> nd = nd_jobs();  // depth-d jobs ride the drill too
        jobs.insert(jobs.end(), std::make_move_iterator(nd.begin()),
                    std::make_move_iterator(nd.end()));
        const RunReport report = service.run(jobs);
        ASSERT_EQ(report.jobs.size(), 11u) << point;
        expect_terminal(report, "storm:" + point);
    }
}

}  // namespace
}  // namespace lf::svc
