// The numeric parameters of MachineConfig's five parameter blocks, each
// declared once: its description-file key, its member, and the inclusive
// range the .conf reader accepts. Every user walks these tables instead of
// spelling the parameters by hand:
//   - the reader and its writer to_config (mdes/machine.cpp);
//   - MachineConfig::validate_issues(), which checks the same ranges, so
//     to_config of every valid machine reloads;
//   - the result-cache key (harness/result_cache.cpp), which hashes each
//     row as its 64-bit sign extension;
//   - the compile-memo key (workloads/registry.cpp): cluster and latency.
// Row order is the writer's and the hash's order. Moving a row changes every
// to_config text and every cache key; the pins in tests/mdes/machine_test
// and tests/harness/result_cache_test catch it.
//
// Not rows: CacheConfig::perfect, the issue_width preset, the enums and the
// scalars of [machine] and [memory].
#pragma once

#include <cstdint>

#include "isa/config.hpp"

namespace vexsim {

template <typename Block, typename T>
struct ConfigParam {
  const char* key;  // key in the block's description-file section
  T Block::*member;
  int lo;  // inclusive range of the reader and of validate_issues()
  int hi;
};

inline constexpr ConfigParam<ClusterResourceConfig, int> kClusterParams[] = {
    {"issue_slots", &ClusterResourceConfig::issue_slots, 1,
     kMaxIssuePerCluster},
    {"alus", &ClusterResourceConfig::alus, 0, 64},
    {"muls", &ClusterResourceConfig::muls, 0, 64},
    {"mem_units", &ClusterResourceConfig::mem_units, 0, 64},
    {"branch_units", &ClusterResourceConfig::branch_units, 0, 64},
};

inline constexpr ConfigParam<LatencyConfig, int> kLatencyParams[] = {
    {"alu", &LatencyConfig::alu, 1, 1000},
    {"mul", &LatencyConfig::mul, 1, 1000},
    {"mem", &LatencyConfig::mem, 1, 1000},
    {"comm", &LatencyConfig::comm, 1, 1000},
    {"cmp_to_branch", &LatencyConfig::cmp_to_branch, 1, 1000},
    {"taken_branch_penalty", &LatencyConfig::taken_branch_penalty, 0, 1000},
};

// One table for both L1s.
inline constexpr ConfigParam<CacheConfig, std::uint32_t> kCacheParams[] = {
    {"size_bytes", &CacheConfig::size_bytes, 1, 1 << 30},
    {"assoc", &CacheConfig::assoc, 1, 1024},
    {"line_bytes", &CacheConfig::line_bytes, 1, 4096},
    {"miss_penalty", &CacheConfig::miss_penalty, 0, 1'000'000},
};

inline constexpr ConfigParam<L2Config, std::uint32_t> kL2Params[] = {
    {"size_bytes", &L2Config::size_bytes, 1, 1 << 30},
    {"assoc", &L2Config::assoc, 1, 1024},
    {"line_bytes", &L2Config::line_bytes, 1, 4096},
    {"hit_latency", &L2Config::hit_latency, 1, 1'000'000},
};

inline constexpr ConfigParam<DramConfig, std::uint32_t> kDramParams[] = {
    {"banks", &DramConfig::banks, 1, 65536},
    {"row_bytes", &DramConfig::row_bytes, 1, 1 << 20},
    {"t_row_hit", &DramConfig::t_row_hit, 1, 1'000'000},
    {"t_row_closed", &DramConfig::t_row_closed, 1, 1'000'000},
    {"t_row_conflict", &DramConfig::t_row_conflict, 1, 1'000'000},
    {"t_bank_busy", &DramConfig::t_bank_busy, 1, 1'000'000},
};

}  // namespace vexsim
