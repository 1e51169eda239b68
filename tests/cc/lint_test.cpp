#include "cc/lint.hpp"

#include <gtest/gtest.h>

#include "cc/verifier.hpp"
#include "isa/config.hpp"
#include "support/test_util.hpp"
#include "util/check.hpp"
#include "vasm/assembler.hpp"

namespace vexsim::cc {
namespace {

MachineConfig cfg() { return MachineConfig::paper(1, Technique::smt()); }

bool has_check(const LintReport& report, const std::string& check) {
  for (const LintFinding& f : report.findings)
    if (f.check == check) return true;
  return false;
}

// --- stale-clone: the PR 5 miscompile class --------------------------------

// The clone-placement miscompile reconstructed as a program: a branch
// condition is cloned onto cluster 1 via send/recv, but the copy is taken
// *before* an interleaving redefinition of the source — the twin compares
// (and the slct clones consuming them) test different values, so the two
// clusters disagree about the predicate. Dynamically this only shows up as
// cross-variant divergence; the linter must prove it statically.
TEST(Lint, FlagsClonePlacementMiscompile) {
  const Program p = assemble(
      "c0 movi r5 = 1\n"
      "c0 movi r6 = 3 ; c1 movi r8 = 4\n"
      "c0 send ch0 = r5 ; c1 recv r7 = ch0\n"
      "c0 movi r5 = 2\n"  // interleaving redefinition after the copy
      "nop\n"
      "c0 cmplt b0 = r5, 100 ; c1 cmplt b0 = r7, 100\n"
      "nop\n"
      "c0 slct r3 = b0, r5, r6 ; c1 slct r4 = b0, r7, r8\n"
      "c0 stw 0x100[r0] = r3 ; c1 stw 0x104[r0] = r4\n"
      "c0 halt\n");
  const LintReport report = lint_program(p, cfg());
  ASSERT_TRUE(has_check(report, "stale-clone"));
  // Both the compare pair and the slct pair read the stale value.
  int stale = 0;
  for (const LintFinding& f : report.findings)
    if (f.check == "stale-clone") ++stale;
  EXPECT_EQ(stale, 2);
  // The findings anchor to the clone instructions and name the version
  // mismatch.
  for (const LintFinding& f : report.findings)
    if (f.check == "stale-clone") {
      EXPECT_TRUE(f.instr == 5 || f.instr == 7);
      EXPECT_NE(f.what.find("version"), std::string::npos);
    }
}

// The corrected shape — copy taken after the final redefinition — must be
// clean: the zero-finding gate is only meaningful if the checks stay
// silent on correct code.
TEST(Lint, CorrectClonePlacementIsClean) {
  const Program p = assemble(
      "c0 movi r5 = 2\n"
      "c0 movi r6 = 3 ; c1 movi r8 = 4\n"
      "c0 send ch0 = r5 ; c1 recv r7 = ch0\n"
      "nop\n"
      "c0 cmplt b0 = r5, 100 ; c1 cmplt b0 = r7, 100\n"
      "nop\n"
      "c0 slct r3 = b0, r5, r6 ; c1 slct r4 = b0, r7, r8\n"
      "c0 stw 0x100[r0] = r3 ; c1 stw 0x104[r0] = r4\n"
      "c0 halt\n");
  const LintReport report = lint_program(p, cfg());
  EXPECT_TRUE(report.findings.empty())
      << to_string(p, report.findings.front());
}

// A re-keyed predicate on the same cluster is a new generation, not a
// stale twin: cmp; use; cmp (same breg, new operands) must stay clean.
TEST(Lint, PredicateRegenerationIsNotAStaleClone) {
  const Program p = assemble(
      "c0 movi r5 = 1\n"
      "c0 cmplt b0 = r5, 100\n"
      "nop\n"
      "c0 slct r3 = b0, r5, r5\n"
      "c0 movi r5 = 2\n"
      "c0 cmplt b0 = r5, 100\n"  // same shape, later value: regeneration
      "nop\n"
      "c0 slct r4 = b0, r5, r5\n"
      "c0 stw 0x100[r0] = r3 ; c0 stw 0x104[r0] = r4\n"
      "c0 halt\n")
      ;
  EXPECT_FALSE(has_check(lint_program(p, cfg()), "stale-clone"));
}

// --- uninit-read -----------------------------------------------------------

TEST(Lint, FlagsReadBeforeAnyDefinition) {
  const Program p = assemble(
      "c0 add r1 = r2, r3\n"
      "c0 stw 0x100[r0] = r1\n"
      "c0 halt\n");
  const LintReport report = lint_program(p, cfg());
  int uninit = 0;
  for (const LintFinding& f : report.findings)
    if (f.check == "uninit-read") {
      EXPECT_EQ(f.instr, 0u);
      ++uninit;
    }
  EXPECT_EQ(uninit, 2);  // r2 and r3
}

TEST(Lint, FlagsUninitBregRead) {
  const Program p = assemble(
      "c0 movi r1 = 1\n"
      "c0 slct r2 = b3, r1, r1\n"  // b3 never written
      "c0 stw 0x100[r0] = r2\n"
      "c0 halt\n");
  const LintReport report = lint_program(p, cfg());
  bool found = false;
  for (const LintFinding& f : report.findings)
    if (f.check == "uninit-read" && f.what.find("c0:b3") != std::string::npos)
      found = true;
  EXPECT_TRUE(found);
}

TEST(Lint, HardwiredZeroReadIsNotUninit) {
  const Program p = assemble(
      "c0 add r1 = r0, 5\n"
      "c0 stw 0x100[r0] = r1\n"
      "c0 halt\n");
  EXPECT_FALSE(has_check(lint_program(p, cfg()), "uninit-read"));
}

TEST(Lint, WriteOnOnlyOnePathIsStillUninit) {
  const Program p = assemble(
      "c0 movi r1 = 1\n"
      "c0 cmplt b0 = r1, 100\n"
      "c0 br b0, @4\n"
      "c0 movi r2 = 7\n"  // skipped when the branch is taken
      "c0 stw 0x100[r0] = r2\n"
      "c0 halt\n");
  const LintReport report = lint_program(p, cfg());
  bool found = false;
  for (const LintFinding& f : report.findings)
    if (f.check == "uninit-read" && f.instr == 4) found = true;
  EXPECT_TRUE(found);
}

// --- same-cycle-waw --------------------------------------------------------

TEST(Lint, FlagsSameCycleWaw) {
  Program p;
  p.name = "waw";
  VliwInstruction insn;
  insn.add(ops::alu(Opcode::kAdd, 0, 1, 2, 3));
  insn.add(ops::alu(Opcode::kSub, 0, 1, 4, 5));  // same c0:r1
  VliwInstruction halt;
  halt.add(ops::halt(0));
  p.finalize({insn, halt});
  const LintReport report = lint_program(p, cfg());
  ASSERT_TRUE(has_check(report, "same-cycle-waw"));
}

// --- dead-copy -------------------------------------------------------------

TEST(Lint, FlagsOrphanInterClusterCopy) {
  const Program p = assemble(
      "c0 movi r1 = 1\n"
      "c0 send ch0 = r1 ; c1 recv r2 = ch0\n"  // r2 never read on c1
      "c0 stw 0x100[r0] = r1\n"
      "c0 halt\n");
  const LintReport report = lint_program(p, cfg());
  bool found = false;
  for (const LintFinding& f : report.findings)
    if (f.check == "dead-copy" && f.instr == 1) found = true;
  EXPECT_TRUE(found);
}

TEST(Lint, ConsumedCopyIsClean) {
  const Program p = assemble(
      "c0 movi r1 = 1\n"
      "c0 send ch0 = r1 ; c1 recv r2 = ch0\n"
      "nop\n"
      "c1 stw 0x100[r0] = r2\n"
      "c0 halt\n");
  EXPECT_FALSE(has_check(lint_program(p, cfg()), "dead-copy"));
}

// --- dead-code and the rematerialization exemptions ------------------------

TEST(Lint, FlagsOrphanedComputation) {
  const Program p = assemble(
      "c0 movi r1 = 1\n"
      "c0 add r2 = r1, r1\n"  // result never read
      "c0 stw 0x100[r0] = r1\n"
      "c0 halt\n");
  const LintReport report = lint_program(p, cfg());
  bool found = false;
  for (const LintFinding& f : report.findings)
    if (f.check == "dead-code" && f.instr == 1) found = true;
  EXPECT_TRUE(found);
}

// The cluster assigner's intentional redundancy must not trip the gate:
// movi rematerialization and predicate-broadcast compare clones are exempt
// from dead-code even when a particular cluster never reads them.
TEST(Lint, RematerializationIsExemptFromDeadCode) {
  const Program p = assemble(
      "c0 movi r1 = 1 ; c1 movi r9 = 42\n"  // c1:r9 never read
      "c0 cmplt b0 = r1, 5 ; c1 cmplt b0 = r1, 5\n"  // c1:b0 never read
      "nop\n"
      "c0 slct r2 = b0, r1, r1\n"
      "c0 stw 0x100[r0] = r2\n"
      "c0 halt\n");
  const LintReport report = lint_program(p, cfg());
  EXPECT_FALSE(has_check(report, "dead-code"));
}

TEST(Lint, DeadLoadIsNotFlagged) {
  // Loads perturb the cache model, so a dead load is not removable and not
  // a finding.
  const Program p = assemble(
      "c0 ldw r1 = 0x200[r0]\n"
      "c0 halt\n");
  EXPECT_FALSE(has_check(lint_program(p, cfg()), "dead-code"));
}

// --- unreachable -----------------------------------------------------------

TEST(Lint, FlagsCodeAfterHalt) {
  const Program p = assemble(
      "c0 movi r1 = 1\n"
      "c0 halt\n"
      "c0 add r2 = r1, r1\n");
  const LintReport report = lint_program(p, cfg());
  bool found = false;
  for (const LintFinding& f : report.findings)
    if (f.check == "unreachable" && f.instr == 2) found = true;
  EXPECT_TRUE(found);
}

// --- kernel-clobber and SWP region handling --------------------------------

// A hand-built two-stage pipelined loop whose kernel computes a value that
// is never read before the next iteration overwrites it: a stage-overlap
// register conflict.
Program swp_with_dead_stage_value() {
  Program p = assemble(
      "c0 movi r2 = 1\n"                           // prologue (span 3 = ii)
      "c0 add r7 = r2, 0 ; c0 add r9 = r2, r2\n"   // r9 drains dead
      "c0 cmplt b0 = r7, 9\n"
      "c0 add r4 = r2, r2\n"       // kernel start (3): r4 dead in kernel
      "c0 add r7 = r7, 1\n"
      "c0 cmplt b0 = r7, 9 ; c0 br b0, @3\n"
      "c0 stw 0x100[r0] = r7\n"    // epilogue
      "c0 halt\n");
  SoftwarePipelinedLoop k;
  k.prologue_start = 0;
  k.kernel_start = 3;
  k.epilogue_end = 7;
  k.ii = 3;
  k.stages = 2;
  p.kernels.push_back(k);
  p.finalize(test::builder_code(p));
  return p;
}

TEST(Lint, FlagsKernelStageOverlapClobber) {
  const Program p = swp_with_dead_stage_value();
  const LintReport report = lint_program(p, cfg());
  bool found = false;
  for (const LintFinding& f : report.findings)
    if (f.check == "kernel-clobber" &&
        f.what.find("c0:r4") != std::string::npos)
      found = true;
  EXPECT_TRUE(found);
}

TEST(Lint, PrologueDrainValuesAreExempt) {
  const Program p = swp_with_dead_stage_value();
  const LintReport report = lint_program(p, cfg());
  // Instruction 1 (prologue) computes r9 which nothing reads; drain stages
  // legitimately compute partial-iteration results, so no dead-code
  // finding may anchor inside the prologue.
  for (const LintFinding& f : report.findings)
    EXPECT_NE(f.check, "dead-code") << to_string(p, f);
}

// --- error paths: lint and verifier on malformed programs ------------------

TEST(Lint, MalformedKernelSpanDoesNotCrashLint) {
  Program p = assemble(
      "c0 movi r1 = 1\n"
      "c0 stw 0x100[r0] = r1\n"
      "c0 halt\n");
  SoftwarePipelinedLoop k;
  k.prologue_start = 2;
  k.kernel_start = 1;  // kernel before prologue, ii past the end
  k.epilogue_end = 3;
  k.ii = 40;
  k.stages = 3;
  p.kernels.push_back(k);  // deliberately not re-finalized
  const auto issues = verify_program(p, cfg());
  bool reported = false;
  for (const VerifyIssue& issue : issues) {
    if (issue.what.find("malformed software-pipeline span") !=
        std::string::npos) {
      EXPECT_EQ(issue.instr, 1u);  // anchors to the kernel start
      reported = true;
    }
  }
  EXPECT_TRUE(reported);
  EXPECT_NO_FATAL_FAILURE((void)lint_program(p, cfg()));
}

TEST(Lint, KernelSpanPastEndOfCodeIsRejectedAtFinalize) {
  Program p = assemble(
      "c0 movi r1 = 1\n"
      "c0 halt\n");
  SoftwarePipelinedLoop k;
  k.prologue_start = 0;
  k.kernel_start = 1;
  k.epilogue_end = 99;
  k.ii = 1;
  k.stages = 2;
  p.kernels.push_back(k);
  EXPECT_THROW(p.finalize(test::builder_code(p)), CheckError);
}

TEST(Lint, OutOfRangeBranchTargetDoesNotCrashLint) {
  Program p;
  p.name = "bad";
  VliwInstruction insn;
  insn.add(ops::jump(0, 12345));
  p.finalize({insn});
  const auto issues = verify_program(p, cfg());
  bool reported = false;
  for (const VerifyIssue& issue : issues)
    if (issue.what.find("branch target out of range") != std::string::npos) {
      EXPECT_EQ(issue.instr, 0u);
      reported = true;
    }
  EXPECT_TRUE(reported);
  EXPECT_NO_FATAL_FAILURE((void)lint_program(p, cfg()));
}

TEST(Lint, UnpairedSendDoesNotCrashLint) {
  Program p;
  p.name = "bad";
  VliwInstruction insn;
  insn.add(ops::send(0, 1, 3));
  VliwInstruction halt;
  halt.add(ops::halt(0));
  p.finalize({insn, halt});
  const auto issues = verify_program(p, cfg());
  bool reported = false;
  for (const VerifyIssue& issue : issues)
    if (issue.what.find("unpaired send/recv on channel 3") !=
        std::string::npos) {
      EXPECT_EQ(issue.instr, 0u);
      reported = true;
    }
  EXPECT_TRUE(reported);
  EXPECT_NO_FATAL_FAILURE((void)lint_program(p, cfg()));
}

// --- lint_or_throw aggregation ---------------------------------------------

TEST(Lint, LintOrThrowAggregatesEveryFinding) {
  const Program p = assemble(
      "c0 add r1 = r2, r3\n"  // two uninit reads
      "c0 halt\n"
      "c0 movi r4 = 1\n");  // unreachable
  try {
    lint_or_throw(p, cfg());
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("uninit-read"), std::string::npos);
    EXPECT_NE(what.find("unreachable"), std::string::npos);
    EXPECT_NE(what.find("[0]"), std::string::npos);
    EXPECT_NE(what.find("[2]"), std::string::npos);
  }
}

TEST(Lint, CleanProgramDoesNotThrow) {
  const Program p = assemble(
      "c0 movi r1 = 1\n"
      "c0 stw 0x100[r0] = r1\n"
      "c0 halt\n");
  EXPECT_NO_THROW(lint_or_throw(p, cfg()));
}

// --- lint_lfunction: structural mid-IR checks ------------------------------

LFunction tiny_lfn() {
  LFunction lfn;
  lfn.name = "lfn";
  lfn.next_vreg = 2;
  lfn.info.resize(2);
  LBlock block;
  LOp op;
  op.opc = Opcode::kAdd;
  op.dst = 1;
  op.src1 = 0;
  op.src2 = 0;
  op.cluster = 0;
  block.body.push_back(op);
  block.term = Terminator::kHalt;
  lfn.blocks.push_back(block);
  return lfn;
}

TEST(LintLFunction, CleanFunctionHasNoFindings) {
  EXPECT_TRUE(lint_lfunction(tiny_lfn(), cfg()).empty());
}

TEST(LintLFunction, FlagsNonexistentCluster) {
  LFunction lfn = tiny_lfn();
  lfn.blocks[0].body[0].cluster = 7;  // 4-cluster machine
  const auto findings = lint_lfunction(lfn, cfg());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].what.find("nonexistent cluster 7"),
            std::string::npos);
}

TEST(LintLFunction, FlagsSelfCopyAndBadVreg) {
  LFunction lfn = tiny_lfn();
  LOp copy;
  copy.is_copy = true;
  copy.cluster = 1;
  copy.copy_dst_cluster = 1;  // self-copy
  copy.src1 = 0;
  copy.dst = 99;  // out of range
  lfn.blocks[0].body.push_back(copy);
  const auto findings = lint_lfunction(lfn, cfg());
  bool self_copy = false;
  bool bad_vreg = false;
  for (const LintFinding& f : findings) {
    self_copy |= f.what.find("self-copy") != std::string::npos;
    bad_vreg |= f.what.find("out-of-range vreg") != std::string::npos;
  }
  EXPECT_TRUE(self_copy);
  EXPECT_TRUE(bad_vreg);
}

TEST(LintLFunction, FlagsTerminatorTargetOutOfRange) {
  LFunction lfn = tiny_lfn();
  lfn.blocks[0].term = Terminator::kGoto;
  lfn.blocks[0].target = 5;
  const auto findings = lint_lfunction(lfn, cfg());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].what.find("nonexistent block 5"), std::string::npos);
}

}  // namespace
}  // namespace vexsim::cc
