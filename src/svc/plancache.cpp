#include "svc/plancache.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "support/faultpoint.hpp"
#include "svc/planstore.hpp"

namespace lf::svc {

std::string to_string(CacheOutcome outcome) {
    switch (outcome) {
        case CacheOutcome::Hit: return "hit";
        case CacheOutcome::Miss: return "miss";
        case CacheOutcome::Bypass: return "bypass";
    }
    return "unknown";
}

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t fnv1a(std::uint64_t h, const char* data, std::size_t len) {
    for (std::size_t i = 0; i < len; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= kFnvPrime;
    }
    return h;
}

std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
        h ^= (v >> (byte * 8)) & 0xffu;
        h *= kFnvPrime;
    }
    return h;
}

std::string key_hex(std::uint64_t key) {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(key));
    return std::string(buf, 16);
}

/// Moves a defective plan file aside as `<name>.quarantined` (replacing any
/// previous quarantine of the same slot) so it can be inspected offline and
/// can never be served again. Best-effort: if even the rename fails, fall
/// back to removal -- a corrupt entry must not survive under its own name.
void quarantine_file(const std::string& path) {
    std::error_code ec;
    std::filesystem::rename(path, path + ".quarantined", ec);
    if (ec) std::filesystem::remove(path, ec);
}

/// Atomic whole-file write: temp file in the same directory, flush + fsync,
/// then rename over the final name. Returns false on any failure (the temp
/// file is cleaned up; the final name is never left half-written).
bool write_file_atomic(const std::string& path, const std::string& bytes) {
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) return false;
    bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    ok = ok && std::fflush(f) == 0;
    ok = ok && ::fsync(::fileno(f)) == 0;
    ok = std::fclose(f) == 0 && ok;
    if (ok) ok = std::rename(tmp.c_str(), path.c_str()) == 0;
    if (!ok) {
        std::error_code ec;
        std::filesystem::remove(tmp, ec);
    }
    return ok;
}

bool read_file(const std::string& path, std::string& out) {
    std::ifstream in(path, std::ios::binary);
    if (!in.good()) return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return in.good() || in.eof();
}

}  // namespace

PlanCache::PlanCache(std::size_t capacity, std::string persist_dir)
    : capacity_(capacity), persist_dir_(std::move(persist_dir)) {
    if (persist_dir_.empty()) return;
    std::error_code ec;
    std::filesystem::create_directories(persist_dir_, ec);
    if (ec) {
        std::fprintf(stderr,
                     "svc: warning: cannot create plan store '%s' (%s); "
                     "running with the in-memory cache only\n",
                     persist_dir_.c_str(), ec.message().c_str());
        persist_dir_.clear();
    }
}

std::string PlanCache::plan_path(std::uint64_t key) const {
    return persist_dir_ + "/" + key_hex(key) + ".plan";
}

std::list<PlanCache::Entry>::iterator PlanCache::promote_locked(Entry e) {
    if (entries_.size() >= capacity_) {
        index_.erase(entries_.back().key);
        entries_.pop_back();
        ++stats_.evictions;
    }
    entries_.push_front(std::move(e));
    index_[entries_.front().key] = entries_.begin();
    return entries_.begin();
}

std::list<PlanCache::Entry>::iterator PlanCache::disk_load_locked(std::uint64_t key,
                                                                  bool want_nd) {
    if (persist_dir_.empty() || capacity_ == 0) return entries_.end();
    ++stats_.disk_misses;  // provisional; rolled back on a clean load below
    if (faultpoint::triggered("svc.plancache.disk")) return entries_.end();
    const std::string path = plan_path(key);
    std::string bytes;
    if (!read_file(path, bytes)) return entries_.end();  // absent: clean miss
    const planstore::DecodeResult decoded = planstore::decode_file(key, bytes);
    if (!decoded.ok || decoded.plan.has_value() == want_nd) {
        // Torn write survivor, bit flip, copy under the wrong key, or a
        // flavor that cannot serve this lookup: quarantine, never serve.
        quarantine_file(path);
        ++stats_.disk_quarantined;
        return entries_.end();
    }
    --stats_.disk_misses;
    ++stats_.disk_hits;
    Entry e;
    e.key = key;
    if (decoded.plan.has_value()) {
        e.plan = *decoded.plan;
    } else {
        e.nd_plan = *decoded.nd_plan;
    }
    return promote_locked(std::move(e));
}

void PlanCache::disk_write_locked(const Entry& e) {
    if (persist_dir_.empty()) return;
    const std::string path = plan_path(e.key);
    std::error_code ec;
    // Content-addressed and deterministic: an existing file already holds
    // these bytes, so skip the write (a quarantined slot has been renamed
    // away and takes this path's rebuild branch).
    if (std::filesystem::exists(path, ec)) return;
    if (faultpoint::triggered("svc.plancache.disk")) {
        ++stats_.disk_write_failures;
        return;
    }
    const std::string bytes = e.nd_plan.has_value()
                                  ? planstore::encode_file_nd(e.key, *e.nd_plan)
                                  : planstore::encode_file(e.key, e.plan);
    if (write_file_atomic(path, bytes)) {
        ++stats_.disk_writes;
    } else {
        ++stats_.disk_write_failures;
    }
}

std::uint64_t PlanCache::key_of(const Mldg& graph, const PlanOptions& options,
                                bool allow_distribution_fallback) {
    // Structural FNV-1a: exactly the information the canonical text
    // serialization (ldg/serialization.hpp) would carry -- nodes in id order
    // (name, order, body_cost), then edges in id order (endpoints + sorted
    // vector sets) -- hashed directly, without materializing the text. The
    // per-field length/count prefixes keep the encoding prefix-free, so two
    // graphs collide only if they are structurally identical (or on a true
    // 64-bit hash collision, which the certify re-check absorbs).
    std::uint64_t h = fnv1a_u64(kFnvOffset, static_cast<std::uint64_t>(graph.num_nodes()));
    for (int v = 0; v < graph.num_nodes(); ++v) {
        const auto& node = graph.node_ref(v);
        h = fnv1a_u64(h, node.name.size());
        h = fnv1a(h, node.name.data(), node.name.size());
        h = fnv1a_u64(h, static_cast<std::uint64_t>(node.order));
        h = fnv1a_u64(h, static_cast<std::uint64_t>(node.body_cost));
    }
    h = fnv1a_u64(h, static_cast<std::uint64_t>(graph.num_edges()));
    for (int eid = 0; eid < graph.num_edges(); ++eid) {
        const auto& e = graph.edge_ref(eid);
        h = fnv1a_u64(h, static_cast<std::uint64_t>(e.from));
        h = fnv1a_u64(h, static_cast<std::uint64_t>(e.to));
        h = fnv1a_u64(h, e.vectors.size());
        for (const Vec2& d : e.vectors) {
            h = fnv1a_u64(h, static_cast<std::uint64_t>(d.x));
            h = fnv1a_u64(h, static_cast<std::uint64_t>(d.y));
        }
    }
    // Fold in every option that changes what the ladder can produce. The
    // plan policy is folded only when it differs from the default, so every
    // FastestSchedule key is bit-identical to the pre-policy cache key (old
    // persistent tiers stay warm); a non-default policy gets its own key
    // space and can never conflate with the default's entries.
    const char opts[2] = {options.compact_prologue ? '\1' : '\0',
                          allow_distribution_fallback ? '\1' : '\0'};
    h = fnv1a(h, opts, sizeof(opts));
    if (options.policy != PlanPolicy::FastestSchedule) {
        h = fnv1a_u64(h, static_cast<std::uint64_t>(options.policy));
    }
    return h;
}

std::uint64_t PlanCache::key_of_nd(const MldgN& graph, const PlanOptions& options,
                                   bool allow_distribution_fallback) {
    // Same structural FNV-1a as key_of, prefixed with a distinct tag and the
    // graph dimension so no depth-d key can ever equal a 2-D key (whose hash
    // starts directly from the node count) or a key of another dimension.
    std::uint64_t h = fnv1a_u64(kFnvOffset, 0x6e642d706c616e00ull);  // "nd-plan" tag
    h = fnv1a_u64(h, static_cast<std::uint64_t>(graph.dim()));
    h = fnv1a_u64(h, static_cast<std::uint64_t>(graph.num_nodes()));
    for (int v = 0; v < graph.num_nodes(); ++v) {
        const auto& node = graph.node_ref(v);
        h = fnv1a_u64(h, node.name.size());
        h = fnv1a(h, node.name.data(), node.name.size());
        h = fnv1a_u64(h, static_cast<std::uint64_t>(node.order));
        h = fnv1a_u64(h, static_cast<std::uint64_t>(node.body_cost));
    }
    h = fnv1a_u64(h, static_cast<std::uint64_t>(graph.num_edges()));
    for (int eid = 0; eid < graph.num_edges(); ++eid) {
        const auto& e = graph.edge_ref(eid);
        h = fnv1a_u64(h, static_cast<std::uint64_t>(e.from));
        h = fnv1a_u64(h, static_cast<std::uint64_t>(e.to));
        h = fnv1a_u64(h, e.vectors.size());
        for (const VecN& d : e.vectors) {
            for (int k = 0; k < d.dim(); ++k) {
                h = fnv1a_u64(h, static_cast<std::uint64_t>(d[k]));
            }
        }
    }
    const char opts[2] = {options.compact_prologue ? '\1' : '\0',
                          allow_distribution_fallback ? '\1' : '\0'};
    h = fnv1a(h, opts, sizeof(opts));
    if (options.policy != PlanPolicy::FastestSchedule) {
        // Same default-transparent policy fold as key_of.
        h = fnv1a_u64(h, static_cast<std::uint64_t>(options.policy));
    }
    return h;
}

std::optional<FusionPlan> PlanCache::lookup(std::uint64_t key) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
        // Memory miss: the disk tier may still hold the plan (written by a
        // previous process, or evicted from the LRU since).
        const auto loaded = disk_load_locked(key, /*want_nd=*/false);
        if (loaded != entries_.end()) {
            ++stats_.hits;
            return loaded->plan;
        }
        ++stats_.misses;
        return std::nullopt;
    }
    entries_.splice(entries_.begin(), entries_, it->second);  // refresh recency
    ++stats_.hits;
    return it->second->plan;
}

void PlanCache::insert(std::uint64_t key, const FusionPlan& plan) {
    if (capacity_ == 0) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
        // Same content re-admitted (e.g. two identical jobs racing on
        // different workers): refresh the entry, keep one copy. The disk
        // write still runs -- it is what rebuilds a quarantined slot.
        entries_.splice(entries_.begin(), entries_, it->second);
        disk_write_locked(*it->second);
        return;
    }
    Entry e;
    e.key = key;
    e.plan = plan;
    e.plan.stages.clear();  // the ladder trace belongs to the planning job
    const auto pos = promote_locked(std::move(e));
    ++stats_.insertions;
    disk_write_locked(*pos);
}

std::optional<NdFusionPlan> PlanCache::lookup_nd(std::uint64_t key) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it == index_.end() || !it->second->nd_plan.has_value()) {
        if (it == index_.end()) {
            const auto loaded = disk_load_locked(key, /*want_nd=*/true);
            if (loaded != entries_.end()) {
                ++stats_.hits;
                return loaded->nd_plan;
            }
        }
        ++stats_.misses;
        return std::nullopt;
    }
    entries_.splice(entries_.begin(), entries_, it->second);  // refresh recency
    ++stats_.hits;
    return it->second->nd_plan;
}

void PlanCache::insert_nd(std::uint64_t key, const NdFusionPlan& plan) {
    if (capacity_ == 0) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
        entries_.splice(entries_.begin(), entries_, it->second);
        disk_write_locked(*it->second);
        return;
    }
    Entry e;
    e.key = key;
    e.nd_plan = plan;
    const auto pos = promote_locked(std::move(e));
    ++stats_.insertions;
    disk_write_locked(*pos);
}

void PlanCache::invalidate(std::uint64_t key) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it == index_.end()) return;
    entries_.erase(it->second);
    index_.erase(it);
    ++stats_.invalidated;
    // A certify-failing entry must not resurrect from disk on the next miss.
    if (!persist_dir_.empty()) {
        std::error_code ec;
        const std::string path = plan_path(key);
        if (std::filesystem::exists(path, ec)) {
            quarantine_file(path);
            ++stats_.disk_quarantined;
        }
    }
}

PlanCacheStats PlanCache::stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::size_t PlanCache::size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::vector<std::uint64_t> PlanCache::lru_keys() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::uint64_t> keys;
    keys.reserve(entries_.size());
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) keys.push_back(it->key);
    return keys;
}

}  // namespace lf::svc
