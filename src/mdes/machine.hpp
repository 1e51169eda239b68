// MachineConfig <-> description file (mdes/config_file.hpp).
//
// The [machine] section names the scalar axes directly and references other
// sections for the composite pieces, SESC-style:
//
//   [machine]
//   clusters        = 4
//   hw_threads      = 4
//   technique       = 'CCSI NS'        # Technique::parse spelling
//   cluster_renaming = true
//   rf_org          = 'partitioned'
//   cluster         = 'paperCluster'   # base resources, every cluster
//   cluster[2:3]    = 'narrow'         # per-cluster overrides (asymmetric)
//   latency         = 'lat'
//   icache          = 'l1i'
//   dcache          = 'l1d'
//   memory          = 'mem'            # miss-handling backend (optional)
//
//   [paperCluster]
//   issue_width = 4       # paper-proportioned FUs for the width...
//   mem_units   = 1       # ...then explicit per-unit overrides
//
//   [mem]
//   backend  = 'hierarchy'  # or 'fixed' (the default: flat miss penalty)
//   l1_mshrs = 8            # outstanding L1 misses per cache
//   l2       = 'l2'         # L2Config section (size/assoc/line/hit_latency)
//   dram     = 'dram'       # DramConfig section (banks/row/timing)
//
// Every key is optional and defaults to the corresponding MachineConfig
// default, so `[machine]` alone is the paper machine. Deserialization is
// strict and aggregating: unknown keys, type errors, bad ranges, dangling
// section references and MachineConfig::validate_issues() violations are all
// collected and thrown as one CheckError by load_machine().
//
// The keys and ranges of the cluster, latency, cache, L2 and DRAM sections
// are rows of isa/config_params.hpp, which the reader and to_config walk.
// validate_issues() checks the same ranges (and every cache's geometry), so
// to_config of any machine it accepts reloads.
#pragma once

#include <string>

#include "isa/config.hpp"
#include "mdes/interp.hpp"

namespace vexsim::mdes {

// Deserializes the [machine] section (and the sections it references) into
// a MachineConfig, best-effort: problems become diagnostics and the
// affected field keeps its default, so one pass reports everything. Does
// NOT run validate_issues() — samplers reject invalid machines instead of
// erroring (dse.hpp), so cross-field validation is the caller's move.
[[nodiscard]] MachineConfig machine_from(const ConfigFile& file,
                                         const Interp& interp,
                                         Diagnostics& diags);

// Parses `path` and deserializes + validates the machine; throws CheckError
// aggregating every parse, deserialization, and validation problem.
[[nodiscard]] MachineConfig load_machine(const std::string& path);

// Serializes `cfg` as description-file text such that
// machine_from(parse(to_config(cfg))) == cfg exactly whenever
// cfg.validate_issues() is empty.
[[nodiscard]] std::string to_config(const MachineConfig& cfg);

}  // namespace vexsim::mdes
