#pragma once
// Run-report serialization and the checkpoint manifest.
//
// The run report is JSON (support/json.hpp): one object per job with
// status, attempts, rung reached, budget spent, plus per-class breaker
// state -- the machine-readable face of a batch run. Reports are
// deterministic for a fixed manifest, configuration and armed-fault set
// when the service runs single-worker; with `include_timings = false` the
// wall-clock fields are omitted so two such runs compare equal as strings.
// (Multi-worker runs are deterministic too whenever the breaker never
// opens; once it opens, which specific jobs get short-circuited depends on
// completion order.)
//
// The checkpoint manifest is deliberately NOT JSON but a line-oriented
// text format (no parser to harden, a truncated tail corrupts at most its
// own line):
//
//   lfsvc-checkpoint v1
//   <id>\t<status>\t<attempts>\t<algorithm>
//
// Each append writes one line with O_APPEND and fsyncs it, so its cost
// does not grow with the manifest. A kill -9 mid-append can tear at most
// the last line; the next append first terminates a torn tail with '\n',
// and loading skips AND counts unknown/malformed lines (for the report),
// so the torn record's job is simply redone. Duplicate ids are tolerated
// (last record wins), so even a manifest damaged outside our control is
// usable.

#include <string>
#include <vector>

#include "svc/service.hpp"

namespace lf::svc {

/// The run report as pretty-printed JSON. `include_timings` = false omits
/// every wall-clock field (for byte-for-byte comparisons).
[[nodiscard]] std::string report_to_json(const RunReport& report, bool include_timings = true);

struct CheckpointEntry {
    std::string id;
    JobStatus status = JobStatus::Pending;
    int attempts = 0;
    std::string algorithm;
};

/// Appends one record (creating the file with its header line if needed):
/// one O_APPEND write, then fsync. Earlier lines are never rewritten; a
/// torn last line is terminated before the record goes after it. Returns
/// false on IO failure or when the "svc.checkpoint" fault point fires; the
/// service treats that as a warning, not a job failure. Not safe against
/// concurrent appends to one file (the service serializes its own).
bool append_checkpoint(const std::string& path, const JobRecord& rec);

/// Loads a checkpoint manifest; a missing file is an empty checkpoint.
/// Malformed/truncated lines are skipped; when `malformed` is non-null it
/// receives how many were skipped.
[[nodiscard]] std::vector<CheckpointEntry> load_checkpoint(const std::string& path,
                                                           int* malformed = nullptr);

}  // namespace lf::svc
