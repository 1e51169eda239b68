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
// The record files are the whole on-disk state. A lookup opens
// <dir>/<key>.json by name, so a miss costs one failed open(), and a record
// stored by any other process or ResultCache instance on the same directory
// is a hit as soon as its rename lands. Any number of shard processes or
// sweep worker threads may share a directory: each store renames a complete
// file into place, so a reader sees the old record, the new one, or none,
// never a torn one. gc() scans the directory for record-named files.
#pragma once

#include <cstdint>
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

// Canonical 16-hex-digit spelling of a fingerprint (record file stem, shard
// manifests).
[[nodiscard]] std::string fingerprint_hex(std::uint64_t key);

// Byte count from a human-friendly size spec: plain digits, or digits with
// a K/M/G suffix (powers of 1024, case-insensitive). CheckError otherwise,
// and for any count above INT64_MAX bytes.
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
  // Creates `dir` (and parents) when missing.
  explicit ResultCache(std::string dir);

  [[nodiscard]] const std::string& dir() const { return dir_; }

  // Path of the record for `key`: <dir>/<16 hex digits>.json.
  [[nodiscard]] std::string entry_path(std::uint64_t key) const;

  // The cached result for `key`, with `cached` and `cache_hit` set; or
  // nullopt on miss — including corrupt, stale-version, truncated, or
  // key-mismatched records.
  [[nodiscard]] std::optional<RunResult> load(std::uint64_t key) const;

  // Atomically persists a successful result (CheckError if `r.failed`:
  // failures are environment-dependent and must re-run). Throws CheckError
  // on I/O failure; run_sweep degrades to uncached operation in that case.
  void store(std::uint64_t key, const std::string& workload,
             const RunResult& r) const;

  // LRU size-budget eviction over the record files in the directory:
  // deletes oldest-mtime records until the rest total <= max_bytes. Other
  // files in the directory are neither counted nor deleted.
  CacheGcStats gc(std::uint64_t max_bytes) const;

 private:
  std::string dir_;
};

}  // namespace vexsim::harness
