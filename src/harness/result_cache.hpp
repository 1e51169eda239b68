// Content-addressed result cache for the experiment-sweep engine.
//
// A sweep point is fully described by (MachineConfig, workload name,
// ExperimentOptions); reproducing the paper's figures re-runs the same
// points thousands of times across fig13–fig16 and the ablations, so
// already-simulated points should cost a file read, not a simulation.
// point_fingerprint() hashes a canonical serialization of every
// behaviour-affecting field (FNV-1a mixed through a splitmix finalizer)
// together with kSimVersionTag; the workload name is resolved first, so
// "synth:m0.3-i0.8" and "synth:i0.8-m0.3" share one entry while any dial
// change gets its own. ResultCache stores one JSON record per point under
// <dir>/<16-hex-key>.json, written atomically (temp file + rename); a
// missing, unparseable, stale-version, or key-mismatched record is simply a
// miss, never an error — the worst a corrupt cache can do is cost one
// re-simulation. Cached results are bit-identical to fresh runs: every
// RunResult field the trajectory JSON or a bench table can observe is
// round-tripped.
//
// Probing is O(1) in the record count via an **index file**
// (<dir>/cache.index): one header line and one "<16-hex-key> <record file>"
// line per record, loaded into an in-memory map at construction. The index
// is maintained with the same crash-safe discipline as the records:
//  * store() appends one line with a single O_APPEND write, so any number
//    of concurrent shard processes (or sweep worker threads) sharing the
//    directory interleave whole lines, never torn ones;
//  * a missing, truncated, or otherwise corrupt index is rebuilt
//    transparently by scanning the directory for record files — hit results
//    are identical either way, the rebuild only restores O(1) probing;
//  * a missing index is published with link(2), which never replaces a
//    file: caches opened at once on a fresh directory all end up appending
//    to the first one's index;
//  * gc(), rebuild_index() and the repair of a corrupt index rewrite the
//    index via temp file + rename, so readers never observe a half-written
//    index.
// The one benign race: a rename rewrite can drop a line appended by a
// concurrent writer. The record file itself survives, so the entry misses
// once, re-simulates (or re-loads on rebuild), and is re-appended —
// convergent, never corrupt.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "harness/experiments.hpp"

namespace vexsim::harness {

// Simulator-semantics version tag, part of every fingerprint and record.
// Bump whenever a change alters cycle-level statistics (the golden suite
// failing is the usual signal): stale records then miss instead of serving
// numbers from the previous simulator.
inline constexpr std::string_view kSimVersionTag = "vexsim-sim-pr9";

// Stable content hash of a sweep point. Throws CheckError when the
// workload name does not resolve (the simulation itself would throw the
// same error); callers treat that as "uncacheable" and let the worker
// surface the real failure.
[[nodiscard]] std::uint64_t point_fingerprint(const MachineConfig& cfg,
                                              const std::string& workload,
                                              const ExperimentOptions& opt);

// Canonical 16-hex-digit spelling of a fingerprint (record file stem, index
// lines, shard manifests).
[[nodiscard]] std::string fingerprint_hex(std::uint64_t key);

// Byte count from a human-friendly size spec: plain digits, or digits with
// a K/M/G suffix (powers of 1024, case-insensitive). CheckError otherwise.
[[nodiscard]] std::uint64_t parse_size_bytes(const std::string& spec);

// gc() eviction summary.
struct CacheGcStats {
  std::uint64_t records_before = 0;
  std::uint64_t records_after = 0;
  std::uint64_t bytes_before = 0;
  std::uint64_t bytes_after = 0;
  std::uint64_t evicted = 0;
};

class ResultCache {
 public:
  // Creates `dir` (and parents) when missing, then loads the index —
  // rebuilding it from a directory scan when it is missing or corrupt.
  explicit ResultCache(std::string dir);

  [[nodiscard]] const std::string& dir() const { return dir_; }

  // Path of the record for `key`: <dir>/<16 hex digits>.json.
  [[nodiscard]] std::string entry_path(std::uint64_t key) const;
  [[nodiscard]] std::string index_path() const;

  // O(1), no I/O: whether `key` is in the index. The authoritative answer
  // comes from load() — a probed record can still be corrupt on disk.
  [[nodiscard]] bool probe(std::uint64_t key) const;

  // Number of indexed records.
  [[nodiscard]] std::size_t index_size() const;

  // The cached result for `key`, with `cached` and `cache_hit` set; or
  // nullopt on miss — including corrupt, stale-version, truncated, or
  // key-mismatched records (which are also dropped from the index). An
  // unindexed key costs no syscall at all.
  [[nodiscard]] std::optional<RunResult> load(std::uint64_t key) const;

  // Pre-index probe path: opens <dir>/<key>.json directly, bypassing the
  // index. Same hit results as load(); kept as the baseline the
  // micro_sim_speed cache-probe benchmark compares the index against.
  [[nodiscard]] std::optional<RunResult> load_unindexed(
      std::uint64_t key) const;

  // Atomically persists a successful result (CheckError if `r.failed`:
  // failures are environment-dependent and must re-run), then appends the
  // key to the index. Throws CheckError on I/O failure; run_sweep degrades
  // to uncached operation in that case.
  void store(std::uint64_t key, const std::string& workload,
             const RunResult& r) const;

  // Rescans the directory for record files and atomically rewrites the
  // index. Load/store keep working against the rebuilt map.
  void rebuild_index() const;

  // LRU size-budget eviction: deletes oldest-mtime records until the
  // indexed records total <= max_bytes, then atomically rewrites the index.
  CacheGcStats gc(std::uint64_t max_bytes) const;

 private:
  // Loads the index file into index_; false when it is missing or corrupt.
  // Caller holds mu_.
  [[nodiscard]] bool read_index_locked();
  void append_index_line(std::uint64_t key) const;
  // Fills index_ from the record files in dir_. Caller holds mu_.
  void scan_records_locked() const;
  // Writes index_ to a temp file and moves it into place: renamed over any
  // existing index with `replace`, linked in otherwise, which returns false
  // and leaves the file alone where an index already exists. Caller holds
  // mu_.
  bool write_index_locked(bool replace) const;
  [[nodiscard]] std::optional<RunResult> read_record(const std::string& path,
                                                     std::uint64_t key) const;

  std::string dir_;
  // fingerprint -> record file name (relative to dir_). Ordered so index
  // rewrites are deterministic. Guarded by mu_: sweep workers store() and
  // load() concurrently.
  mutable std::mutex mu_;
  mutable std::map<std::uint64_t, std::string> index_;
};

}  // namespace vexsim::harness
