#include "svc/breaker.hpp"

namespace lf::svc {

std::string to_string(BreakerState state) {
    switch (state) {
        case BreakerState::Closed: return "closed";
        case BreakerState::Open: return "open";
        case BreakerState::HalfOpen: return "half-open";
    }
    return "?";
}

std::string to_string(AdmitMode mode) {
    switch (mode) {
        case AdmitMode::Full: return "full";
        case AdmitMode::Fallback: return "fallback";
        case AdmitMode::Probe: return "probe";
    }
    return "?";
}

CircuitBreakerBank::CircuitBreakerBank(const BreakerConfig& config) : config_(config) {
    if (config_.probe_interval < 1) config_.probe_interval = 1;
}

AdmitMode CircuitBreakerBank::admit(const std::string& klass) {
    if (config_.failure_threshold <= 0) return AdmitMode::Full;
    const std::lock_guard<std::mutex> lock(mutex_);
    ClassState& st = classes_[klass];
    if (st.state == BreakerState::Closed) return AdmitMode::Full;
    // Open or HalfOpen: mostly fallback, periodically probe.
    ++st.since_open;
    if (st.since_open % static_cast<std::uint64_t>(config_.probe_interval) == 0) {
        st.state = BreakerState::HalfOpen;
        return AdmitMode::Probe;
    }
    ++st.short_circuited;
    return AdmitMode::Fallback;
}

void CircuitBreakerBank::record(const std::string& klass, AdmitMode mode, bool verified) {
    if (config_.failure_threshold <= 0) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    ClassState& st = classes_[klass];
    switch (mode) {
        case AdmitMode::Full:
            if (verified) {
                st.consecutive_failures = 0;
            } else if (++st.consecutive_failures >= config_.failure_threshold &&
                       st.state == BreakerState::Closed) {
                st.state = BreakerState::Open;
                ++st.trips;
                st.since_open = 0;
            }
            break;
        case AdmitMode::Probe:
            if (verified) {
                st.state = BreakerState::Closed;
                st.consecutive_failures = 0;
                st.since_open = 0;
            } else {
                st.state = BreakerState::Open;  // reopen; probe cadence continues
            }
            break;
        case AdmitMode::Fallback:
            // Fallback outcomes say nothing about full-ladder health.
            break;
    }
}

std::vector<BreakerSnapshot> CircuitBreakerBank::snapshot() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<BreakerSnapshot> out;
    out.reserve(classes_.size());
    for (const auto& [klass, st] : classes_) {
        out.push_back(BreakerSnapshot{klass, st.state, st.consecutive_failures, st.trips,
                                      st.short_circuited});
    }
    return out;  // std::map iteration is already sorted by class
}

}  // namespace lf::svc
