#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include <unistd.h>

namespace pb {

int Trace::open(std::string_view name, std::uint64_t request, int parent) {
    if (!enabled_) return -1;
    Span s;
    s.name = std::string(name);
    s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
    s.parent = parent;
    s.request = request;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
}

void Trace::close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
}

void Trace::merge(const Trace& other) {
    const int base = static_cast<int>(spans_.size());
    for (Span s : other.spans_) {
        if (s.parent >= 0) s.parent += base;
        spans_.push_back(std::move(s));
    }
}

std::vector<std::pair<std::uint64_t, double>> Trace::self_times(std::string_view name) const {
    std::vector<std::vector<int>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].parent >= 0) children[static_cast<std::size_t>(spans_[i].parent)].push_back(static_cast<int>(i));
    }
    std::vector<std::pair<std::uint64_t, double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        if (s.name != name) continue;
        // Union of the children's intervals, clipped to the parent.
        std::vector<std::pair<std::int64_t, std::int64_t>> iv;
        for (const int c : children[i]) {
            const Span& k = spans_[static_cast<std::size_t>(c)];
            iv.emplace_back(std::max(k.start_ns, s.start_ns), std::min(k.end_ns, s.end_ns));
        }
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t reach = s.start_ns;
        for (const auto& [a, b] : iv) {
            const std::int64_t lo = std::max(a, reach);
            if (b > lo) {
                covered += b - lo;
                reach = b;
            }
        }
        out.emplace_back(s.request, static_cast<double>(s.end_ns - s.start_ns - covered) / 1e3);
    }
    return out;
}

std::vector<double> Trace::self_us(std::string_view name) const {
    std::vector<double> out;
    for (const auto& [request, us] : self_times(name)) out.push_back(us);
    return out;
}

bool Trace::write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
        out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
            << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
            << ",\"request\":" << s.request << "}\n";
    }
    return out.good();
}

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double geomean(const std::vector<double>& v) {
    if (v.empty()) return 0;
    double log_sum = 0;
    for (const double x : v) log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

void add_operation_metrics(std::vector<Metric>& out, const std::vector<double>& latencies_ms,
                           std::int64_t attempted, std::int64_t failed,
                           double timed_seconds) {
    const std::string n = "n=" + std::to_string(latencies_ms.size());
    const auto beyond_p90 = static_cast<std::size_t>(
        static_cast<double>(latencies_ms.size()) * 0.1);
    out.push_back({"p50_ms", quantile(latencies_ms, 0.5), "ms", n});
    out.push_back({"p90_ms", quantile(latencies_ms, 0.9), "ms",
                   n + ", " + std::to_string(beyond_p90) + " beyond"});
    out.push_back({"throughput_ops", static_cast<double>(attempted - failed) / timed_seconds,
                   "1/s",
                   std::to_string(attempted - failed) + " verified ops / " +
                       std::to_string(timed_seconds) + " s"});
    out.push_back({"verified_frac",
                   attempted > 0 ? static_cast<double>(attempted - failed) /
                                       static_cast<double>(attempted)
                                 : 0.0,
                   "frac",
                   "base: " + std::to_string(attempted) + " attempted"});
}

const Metric* find_metric(const std::vector<Metric>& v, std::string_view name) {
    for (const Metric& m : v) {
        if (m.name == name) return &m;
    }
    return nullptr;
}

double peak_rss_mb(int pid) {
    const std::string path =
        pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = 0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    return 0;
}

RunDir::RunDir(const std::string& parent) {
    std::filesystem::create_directories(parent);
    std::string templ = parent + "/run-XXXXXX";
    if (::mkdtemp(templ.data()) == nullptr) {
        throw std::runtime_error("cannot create a run directory under " + parent);
    }
    path_ = std::filesystem::absolute(templ).string();
}

RunDir::~RunDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
}

std::string RunDir::sub(const std::string& name) const {
    const std::string p = path_ + "/" + name;
    std::filesystem::create_directories(p);
    return p;
}

}  // namespace pb
