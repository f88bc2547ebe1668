#pragma once
// Per-workload-class circuit breaking for the fusion service.
//
// Rationale: a single malformed or adversarial workload *class* (one
// generator, one customer, one ingest pipeline) can otherwise burn the
// whole pool's budget re-running a ladder that always fails. The breaker
// watches consecutive failures per class and, once open, short-circuits
// that class straight to the loop-distribution fallback
// (TryPlanOptions::distribution_only) -- cheap, always legal for
// program-model inputs, and it keeps the queue draining.
//
// States (classic three-state breaker, probe-counted instead of timed so
// runs are deterministic):
//
//   Closed   -- normal operation; failure_threshold consecutive full-ladder
//               failures trip it to Open.
//   Open     -- jobs of the class are admitted in Fallback mode; every
//               probe_interval-th admission is a Probe instead.
//   HalfOpen -- a probe is in flight at full ladder strength. A verified
//               probe closes the breaker; a failed one reopens it.
//
// Fallback-mode successes deliberately do NOT close the breaker: verifying
// the unfused fallback proves nothing about the full ladder's health.
//
// Thread-safe; one bank instance is shared by all service workers. Under
// concurrency the admit/record pair is not atomic (another worker may
// observe HalfOpen while a probe runs) -- the breaker is a load-shedding
// heuristic, not a lock, so approximate state transitions are acceptable.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace lf::svc {

struct BreakerConfig {
    /// Consecutive full-strength failures of one class that open its
    /// breaker; <= 0 disables circuit breaking entirely.
    int failure_threshold = 3;
    /// When open, every probe_interval-th admission of the class goes
    /// through at full strength to test recovery (minimum 1: every
    /// admission probes).
    int probe_interval = 4;
};

enum class BreakerState { Closed, Open, HalfOpen };
[[nodiscard]] std::string to_string(BreakerState state);

/// What the breaker tells a worker to do with one planning attempt.
enum class AdmitMode {
    Full,      // run the whole degradation ladder
    Fallback,  // short-circuit: distribution_only
    Probe,     // full ladder; the outcome decides whether the breaker closes
};
[[nodiscard]] std::string to_string(AdmitMode mode);

struct BreakerSnapshot {
    std::string klass;
    BreakerState state = BreakerState::Closed;
    int consecutive_failures = 0;
    /// Times the breaker tripped Closed -> Open.
    std::uint64_t trips = 0;
    /// Attempts short-circuited to the fallback while open.
    std::uint64_t short_circuited = 0;
};

class CircuitBreakerBank {
  public:
    explicit CircuitBreakerBank(const BreakerConfig& config = {});

    /// Called when a worker is about to run one planning attempt for a job
    /// of `klass`; the returned mode must be fed back through record().
    [[nodiscard]] AdmitMode admit(const std::string& klass);

    /// Reports the outcome of an attempt admitted with `mode`. `verified`
    /// means the attempt ended with an admitted (gate-passed) plan.
    void record(const std::string& klass, AdmitMode mode, bool verified);

    /// Per-class states, sorted by class name (deterministic for reports).
    [[nodiscard]] std::vector<BreakerSnapshot> snapshot() const;

  private:
    struct ClassState {
        BreakerState state = BreakerState::Closed;
        int consecutive_failures = 0;
        std::uint64_t trips = 0;
        std::uint64_t short_circuited = 0;
        /// Admissions since the breaker opened (drives probe cadence).
        std::uint64_t since_open = 0;
    };

    BreakerConfig config_;
    mutable std::mutex mutex_;
    std::map<std::string, ClassState> classes_;
};

}  // namespace lf::svc
