// [memory]/[l2]/[dram] description-file coverage: a full hierarchy machine
// deserializes field for field, hostile inputs (duplicate keys, zero banks,
// non-power-of-two geometry, unknown keys/backends, dangling references)
// produce aggregated file:line diagnostics, and to_config round-trips the
// memory sections exactly.
#include "mdes/machine.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/check.hpp"

namespace vexsim::mdes {
namespace {

MachineConfig machine_of(const std::string& text, Diagnostics& diags) {
  const ConfigFile file = ConfigFile::parse_text(text);
  const Interp interp(file);
  return machine_from(file, interp, diags);
}

const char* kHierarchyText =
    "[machine]\n"
    "memory = 'mem'\n"
    "[mem]\n"
    "backend = 'hierarchy'\n"
    "l1_mshrs = 16\n"
    "l2 = 'l2'\n"
    "dram = 'dram'\n"
    "[l2]\n"
    "size_bytes = 262144\n"
    "assoc = 4\n"
    "line_bytes = 128\n"
    "hit_latency = 15\n"
    "[dram]\n"
    "banks = 16\n"
    "row_bytes = 4096\n"
    "t_row_hit = 21\n"
    "t_row_closed = 33\n"
    "t_row_conflict = 47\n"
    "t_bank_busy = 8\n";

TEST(MdesMemory, HierarchyMachineDeserializesFieldForField) {
  Diagnostics diags;
  const MachineConfig m = machine_of(kHierarchyText, diags);
  ASSERT_TRUE(diags.empty())
      << diags.all().front().loc.str() << ": " << diags.all().front().message;
  EXPECT_EQ(m.memory.backend, MemBackendKind::kHierarchy);
  EXPECT_EQ(m.memory.l1_mshrs, 16u);
  EXPECT_EQ(m.memory.l2.size_bytes, 262144u);
  EXPECT_EQ(m.memory.l2.assoc, 4u);
  EXPECT_EQ(m.memory.l2.line_bytes, 128u);
  EXPECT_EQ(m.memory.l2.hit_latency, 15u);
  EXPECT_EQ(m.memory.dram.banks, 16u);
  EXPECT_EQ(m.memory.dram.row_bytes, 4096u);
  EXPECT_EQ(m.memory.dram.t_row_hit, 21u);
  EXPECT_EQ(m.memory.dram.t_row_closed, 33u);
  EXPECT_EQ(m.memory.dram.t_row_conflict, 47u);
  EXPECT_EQ(m.memory.dram.t_bank_busy, 8u);
  EXPECT_TRUE(m.validate_issues().empty());
}

TEST(MdesMemory, OmittedMemorySectionKeepsTheFixedDefault) {
  Diagnostics diags;
  const MachineConfig m = machine_of("[machine]\nclusters = 2\n", diags);
  EXPECT_TRUE(diags.empty());
  EXPECT_EQ(m.memory, MemoryConfig{});
  EXPECT_EQ(m.memory.backend, MemBackendKind::kFixed);
}

TEST(MdesMemory, DuplicateKeysAreAggregatedWithLocations) {
  try {
    (void)ConfigFile::parse_text(
        "[machine]\n"
        "memory = 'mem'\n"
        "[mem]\n"
        "l1_mshrs = 8\n"
        "l1_mshrs = 16\n"   // duplicate
        "dram = 'dram'\n"
        "[dram]\n"
        "banks = 8\n"
        "banks = 4\n");     // duplicate
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("2 problem(s)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("duplicate key 'l1_mshrs'"), std::string::npos);
    EXPECT_NE(msg.find("<config>:5"), std::string::npos);
    EXPECT_NE(msg.find("duplicate key 'banks'"), std::string::npos);
    EXPECT_NE(msg.find("<config>:9"), std::string::npos);
  }
}

TEST(MdesMemory, ZeroBanksAndOutOfRangeMshrsAreDiagnosedAtTheirLines) {
  Diagnostics diags;
  (void)machine_of(
      "[machine]\n"
      "memory = 'mem'\n"
      "[mem]\n"
      "l1_mshrs = 0\n"      // below [1, 64]
      "dram = 'dram'\n"
      "[dram]\n"
      "banks = 0\n",        // a DRAM needs at least one bank
      diags);
  ASSERT_EQ(diags.all().size(), 2u);
  EXPECT_NE(diags.all()[0].message.find("l1_mshrs = 0 out of range"),
            std::string::npos);
  EXPECT_EQ(diags.all()[0].loc.line, 4);
  EXPECT_NE(diags.all()[1].message.find("banks = 0 out of range"),
            std::string::npos);
  EXPECT_EQ(diags.all()[1].loc.line, 7);
}

TEST(MdesMemory, UnknownKeysBackendsAndDanglingReferencesAreDiagnosed) {
  Diagnostics diags;
  (void)machine_of(
      "[machine]\n"
      "memory = 'mem'\n"
      "[mem]\n"
      "backend = 'l3'\n"       // unknown backend name
      "mshrs = 4\n"            // typo -> unknown key
      "l2 = 'nope'\n"          // dangling section reference
      "dram = 'dram'\n"
      "[dram]\n"
      "rows = 9\n",            // typo inside a referenced section
      diags);
  ASSERT_EQ(diags.all().size(), 4u);
  bool saw_backend = false, saw_mshrs = false, saw_dangling = false,
       saw_rows = false;
  for (const auto& d : diags.all()) {
    saw_backend |= d.message.find("unknown memory backend 'l3'") !=
                   std::string::npos;
    saw_mshrs |= d.message.find("unknown key 'mshrs'") != std::string::npos;
    saw_dangling |=
        d.message.find("unknown section [nope]") != std::string::npos;
    saw_rows |= d.message.find("unknown key 'rows'") != std::string::npos;
  }
  EXPECT_TRUE(saw_backend && saw_mshrs && saw_dangling && saw_rows);
}

TEST(MdesMemory, ValidateIssuesCatchesCrossFieldGeometryViolations) {
  // A non-power-of-two L2 line breaks both the line check and the derived
  // set count (512 KiB / (96 * 8) is not a power of two either).
  MachineConfig bad_line;
  bad_line.memory.l2.line_bytes = 96;
  const auto line_issues = bad_line.validate_issues();
  ASSERT_EQ(line_issues.size(), 2u) << line_issues[0];
  EXPECT_NE(line_issues[0].find("memory.l2.line_bytes = 96"),
            std::string::npos);
  EXPECT_NE(line_issues[1].find("power-of-two set count"), std::string::npos);

  // DRAM geometry: non-power-of-two banks, and a row buffer smaller than
  // the L2 line it must hold.
  MachineConfig bad_dram;
  bad_dram.memory.dram.banks = 3;
  bad_dram.memory.dram.row_bytes = 32;  // power of two but < line (64)
  const auto dram_issues = bad_dram.validate_issues();
  ASSERT_EQ(dram_issues.size(), 2u) << dram_issues[0];
  EXPECT_NE(dram_issues[0].find("memory.dram.banks = 3"), std::string::npos);
  EXPECT_NE(dram_issues[1].find("smaller than memory.l2.line_bytes"),
            std::string::npos);

  MachineConfig zero;
  zero.memory.dram.banks = 0;
  bool saw_zero = false;
  for (const std::string& issue : zero.validate_issues())
    saw_zero |= issue.find("memory.dram.banks = 0 out of range") !=
                std::string::npos;
  EXPECT_TRUE(saw_zero);
}

TEST(MdesMemory, BackendNamesRoundTrip) {
  EXPECT_EQ(to_string(MemBackendKind::kFixed), "fixed");
  EXPECT_EQ(to_string(MemBackendKind::kHierarchy), "hierarchy");
  EXPECT_EQ(mem_backend_from("fixed"), MemBackendKind::kFixed);
  EXPECT_EQ(mem_backend_from("hierarchy"), MemBackendKind::kHierarchy);
  try {
    (void)mem_backend_from("l3");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("l3"), std::string::npos);
    EXPECT_NE(msg.find("hierarchy"), std::string::npos);  // lists valid names
  }
}

TEST(MdesMemory, ToConfigRoundTripsTheHierarchySections) {
  Diagnostics diags;
  MachineConfig m = machine_of(kHierarchyText, diags);
  ASSERT_TRUE(diags.empty());
  const ConfigFile file = ConfigFile::parse_text(to_config(m));
  const Interp interp(file);
  Diagnostics back_diags;
  const MachineConfig back = machine_from(file, interp, back_diags);
  EXPECT_TRUE(back_diags.empty());
  EXPECT_EQ(back, m);
  EXPECT_EQ(back.memory, m.memory);
}

}  // namespace
}  // namespace vexsim::mdes
