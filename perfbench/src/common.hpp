#pragma once
// Shared pieces of the perfbench binary: clocks, span tracing, order
// statistics, the metric sheet every workload fills in, and run-owned
// scratch directories.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// What every workload receives from the command line.
struct RunArgs {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /// Directory the run may create its own scratch directory in.
    std::string workdir;
    /// Directory of this binary; fusion_server is built beside it.
    std::string bindir;

    /// Length of one timed pass: a traced run splits `seconds` between its
    /// untraced and its traced pass.
    [[nodiscard]] double pass_seconds() const { return trace ? seconds / 2 : seconds; }
};

// ---------------------------------------------------------------------------
// Tracing: spans recorded from the benchmark's own files around calls into
// the program's public functions. Spans stay in memory until write_jsonl().

struct Span {
    std::string name;
    std::int64_t start_ns = 0;  // relative to the trace origin
    std::int64_t end_ns = 0;
    int parent = -1;            // index of the enclosing span, -1 for a root
    std::uint64_t request = 0;  // operation (request, input, kernel) id
};

class Trace {
  public:
    explicit Trace(bool enabled, Clock::time_point origin = Clock::now())
        : enabled_(enabled), origin_(origin) {}

    /// Opens a span; returns its id, or -1 when tracing is off.
    int open(std::string_view name, std::uint64_t request, int parent = -1);
    void close(int id);

    /// Appends another trace's spans (e.g. one client thread's).
    void merge(const Trace& other);

    /// (request, self time in microseconds) of every span called `name`:
    /// its duration minus the part of it covered by its child spans.
    [[nodiscard]] std::vector<std::pair<std::uint64_t, double>> self_times(
        std::string_view name) const;
    /// The self times alone.
    [[nodiscard]] std::vector<double> self_us(std::string_view name) const;

    [[nodiscard]] std::size_t size() const { return spans_.size(); }

    /// One JSON object per line: name, start/end ns, parent, request.
    [[nodiscard]] bool write_jsonl(const std::string& path) const;

  private:
    bool enabled_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
  public:
    Scope(Trace& t, std::string_view name, std::uint64_t request, int parent = -1)
        : trace_(t), id_(t.open(name, request, parent)) {}
    ~Scope() { trace_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    [[nodiscard]] int id() const { return id_; }

  private:
    Trace& trace_;
    int id_;
};

// ---------------------------------------------------------------------------
// Order statistics.

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
/// Geometric mean of positive values; 0 for an empty sample.
[[nodiscard]] double geomean(const std::vector<double>& v);

// ---------------------------------------------------------------------------
// The metric sheet.

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    /// Printed beside the value: the sample count of a percentile, the base
    /// of a ratio, or what the number covers.
    std::string note;
};

struct Outcome {
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    /// First failure, for the error message.
    std::string first_failure;
    std::vector<Metric> end_to_end;
    /// Filled by traced runs only.
    std::vector<Metric> per_layer;
    /// The traced pass's own end-to-end numbers, printed beside the
    /// untraced ones to show the tracing overhead.
    std::vector<Metric> traced_end_to_end;
    /// Free-form lines printed before the result (per-kernel rows, the
    /// layer table).
    std::vector<std::string> report;

    void fail(std::string why) {
        ++failed;
        if (first_failure.empty()) first_failure = std::move(why);
    }
};

/// The latency/throughput/verification part of the end-to-end sheet,
/// shared by every workload. `latencies_ms` holds one entry per verified
/// operation; `attempted`/`failed` count every operation.
void add_operation_metrics(std::vector<Metric>& out, const std::vector<double>& latencies_ms,
                           std::int64_t attempted, std::int64_t failed,
                           double timed_seconds);

[[nodiscard]] const Metric* find_metric(const std::vector<Metric>& v, std::string_view name);

// ---------------------------------------------------------------------------
// Processes and scratch state.

/// Peak resident set (VmHWM) of `pid` in MB (0 = this process); 0 if
/// unreadable.
[[nodiscard]] double peak_rss_mb(int pid = 0);

/// A directory the run owns: created fresh under `parent`, removed with
/// everything in it when the object dies.
class RunDir {
  public:
    explicit RunDir(const std::string& parent);
    ~RunDir();
    RunDir(const RunDir&) = delete;
    RunDir& operator=(const RunDir&) = delete;

    [[nodiscard]] const std::string& path() const { return path_; }
    /// Creates (if needed) and returns the subdirectory `name`.
    [[nodiscard]] std::string sub(const std::string& name) const;

  private:
    std::string path_;
};

/// splitmix64: derives independent, reproducible streams from one seed.
[[nodiscard]] inline std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
    std::uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

}  // namespace pb
