// The counter blocks of a RunResult, one field table per struct, in
// serialization order. The sweep trajectory entry (sweep_point_json) and
// the result-cache record (result_cache.cpp) build their counter blocks from
// these tables, and the record reader looks each counter up under the same
// name, so a counter added to a struct and its table reaches every block
// built from it, and the reader, at once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "sim/driver.hpp"
#include "stats/json.hpp"

namespace vexsim::harness {

template <typename S>
struct StatField {
  std::string_view name;
  std::uint64_t S::*member;
};

inline constexpr StatField<SimStats> kSimFields[] = {
    {"cycles", &SimStats::cycles},
    {"ops_issued", &SimStats::ops_issued},
    {"instructions_retired", &SimStats::instructions_retired},
    {"split_instructions", &SimStats::split_instructions},
    {"vertical_waste_cycles", &SimStats::vertical_waste_cycles},
    {"multi_thread_cycles", &SimStats::multi_thread_cycles},
    {"memport_stall_cycles", &SimStats::memport_stall_cycles},
    {"drain_cycles", &SimStats::drain_cycles},
    {"taken_branches", &SimStats::taken_branches},
    {"faults", &SimStats::faults},
};

// The record's icache, dcache and l2 blocks. The trajectory flattens these
// counters into icache_*, dcache_* and l2_* keys, written by hand.
inline constexpr StatField<CacheStats> kCacheFields[] = {
    {"hits", &CacheStats::hits},
    {"misses", &CacheStats::misses},
};

inline constexpr StatField<mem::MshrStats> kMshrFields[] = {
    {"allocations", &mem::MshrStats::allocations},
    {"merges", &mem::MshrStats::merges},
    {"full_stalls", &mem::MshrStats::full_stalls},
    {"peak_occupancy", &mem::MshrStats::peak_occupancy},
};

inline constexpr StatField<mem::DramStats> kDramFields[] = {
    {"row_hits", &mem::DramStats::row_hits},
    {"row_closed", &mem::DramStats::row_closed},
    {"row_conflicts", &mem::DramStats::row_conflicts},
};

inline constexpr StatField<MergeEngineStats> kMergeFields[] = {
    {"full_selections", &MergeEngineStats::full_selections},
    {"partial_selections", &MergeEngineStats::partial_selections},
    {"blocked_selections", &MergeEngineStats::blocked_selections},
    {"comm_nosplit_forced", &MergeEngineStats::comm_nosplit_forced},
};

inline constexpr StatField<CompileSummary> kCompileFields[] = {
    {"instructions", &CompileSummary::instructions},
    {"operations", &CompileSummary::operations},
    {"copies_inserted", &CompileSummary::copies_inserted},
    {"swp_loops", &CompileSummary::swp_loops},
};

// Only the record serializes the per-thread counters.
inline constexpr StatField<ThreadCounters> kCounterFields[] = {
    {"instructions", &ThreadCounters::instructions},
    {"ops", &ThreadCounters::ops},
    {"taken_branches", &ThreadCounters::taken_branches},
    {"split_instructions", &ThreadCounters::split_instructions},
    {"dmiss_block_cycles", &ThreadCounters::dmiss_block_cycles},
    {"imiss_block_cycles", &ThreadCounters::imiss_block_cycles},
};

// An instance's numeric identity, between its name and its fault flag.
inline constexpr StatField<InstanceResult> kInstanceFields[] = {
    {"instructions", &InstanceResult::instructions},
    {"respawns", &InstanceResult::respawns},
    {"arch_fingerprint", &InstanceResult::arch_fingerprint},
};

// Appends the counters of `s` to the object `j`.
template <typename S, std::size_t N>
void append_fields(Json& j, const StatField<S> (&fields)[N], const S& s) {
  for (const StatField<S>& f : fields) j.set(f.name, s.*f.member);
}

template <typename S, std::size_t N>
Json fields_json(const StatField<S> (&fields)[N], const S& s) {
  Json j = Json::object();
  append_fields(j, fields, s);
  return j;
}

// Reads the counters of `s` back from `j`. A missing or non-integer member
// throws CheckError, so a record that lacks a counter is a cache miss.
template <typename S, std::size_t N>
void read_fields(const Json& j, const StatField<S> (&fields)[N], S& s) {
  for (const StatField<S>& f : fields) s.*f.member = j.at(f.name).as_uint64();
}

// The identity both forms open each instance with.
inline Json instance_json(const InstanceResult& inst) {
  Json j = Json::object();
  j.set("name", inst.name);
  append_fields(j, kInstanceFields, inst);
  j.set("faulted", inst.faulted);
  return j;
}

inline InstanceResult instance_from_json(const Json& j) {
  InstanceResult inst;
  inst.name = j.at("name").as_string();
  read_fields(j, kInstanceFields, inst);
  inst.faulted = j.at("faulted").as_bool();
  return inst;
}

}  // namespace vexsim::harness
