#include "cc/verifier.hpp"

#include <gtest/gtest.h>

#include "isa/config.hpp"
#include "support/test_util.hpp"
#include "vasm/assembler.hpp"

namespace vexsim::cc {
namespace {

MachineConfig cfg() { return MachineConfig::paper(1, Technique::smt()); }

TEST(Verifier, AcceptsLegalProgram) {
  const Program p = assemble(
      "c0 add r1 = r2, r3 ; c1 mpyl r4 = r5, r6 ; c2 ldw r7 = 0x200[r0]\n"
      "c0 send ch0 = r1 ; c1 recv r2 = ch0\n"
      "c0 halt\n");
  EXPECT_TRUE(verify_program(p, cfg()).empty());
  EXPECT_NO_THROW(verify_or_throw(p, cfg()));
}

TEST(Verifier, RejectsOvercommittedSlots) {
  // 5 ALU ops on a 4-slot cluster.
  const Program p = assemble(
      "c0 add r1 = r2, r3 ; c0 sub r4 = r5, r6 ; c0 or r7 = r8, r9 ; "
      "c0 xor r10 = r11, r12 ; c0 and r13 = r14, r15\n");
  const auto issues = verify_program(p, cfg());
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].what.find("overcommitted"), std::string::npos);
  EXPECT_THROW(verify_or_throw(p, cfg()), CheckError);
}

TEST(Verifier, RejectsTooManyMultipliers) {
  const Program p = assemble(
      "c0 mpyl r1 = r2, r3 ; c0 mpyl r4 = r5, r6 ; c0 mpyh r7 = r8, r9\n");
  EXPECT_FALSE(verify_program(p, cfg()).empty());
}

TEST(Verifier, RejectsTwoMemOpsOneUnit) {
  const Program p = assemble(
      "c0 ldw r1 = 0x200[r0] ; c0 stw 0x300[r0] = r2\n");
  EXPECT_FALSE(verify_program(p, cfg()).empty());
}

TEST(Verifier, RejectsUnpairedSend) {
  Program p;
  p.name = "bad";
  VliwInstruction insn;
  insn.add(ops::send(0, 1, 2));  // no matching recv
  p.finalize({insn});
  const auto issues = verify_program(p, cfg());
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].what.find("unpaired"), std::string::npos);
}

TEST(Verifier, RejectsChannelReuse) {
  Program p;
  p.name = "bad";
  VliwInstruction insn;
  insn.add(ops::send(0, 1, 0));
  insn.add(ops::send(1, 2, 0));  // same channel twice
  insn.add(ops::recv(2, 3, 0));
  insn.add(ops::recv(3, 4, 0));
  p.finalize({insn});
  EXPECT_FALSE(verify_program(p, cfg()).empty());
}

TEST(Verifier, RejectsMultipleBranches) {
  Program p;
  p.name = "bad";
  VliwInstruction insn;
  insn.add(ops::jump(0, 0));
  insn.add(ops::br(1, 0, 0));
  p.finalize({insn});
  const auto issues = verify_program(p, cfg());
  ASSERT_FALSE(issues.empty());
}

TEST(Verifier, RejectsBranchTargetOutOfRange) {
  Program p;
  p.name = "bad";
  VliwInstruction insn;
  insn.add(ops::jump(0, 5));
  p.finalize({insn});
  EXPECT_FALSE(verify_program(p, cfg()).empty());
}

TEST(Verifier, RejectsBundleOnMissingCluster) {
  Program p;
  p.name = "bad";
  VliwInstruction insn;
  insn.add(ops::mov(5, 1, 2));  // cluster 5 on a 4-cluster machine
  p.finalize({insn});
  EXPECT_FALSE(verify_program(p, cfg()).empty());
}

TEST(Verifier, ReportsAllIssuesNotJustFirst) {
  Program p;
  p.name = "bad";
  VliwInstruction a;
  a.add(ops::jump(0, 9));
  VliwInstruction b;
  b.add(ops::send(0, 1, 1));
  p.finalize({a, b});
  EXPECT_GE(verify_program(p, cfg()).size(), 2u);
  // verify_or_throw aggregates every issue into one error, each line
  // prefixed with its instruction index.
  try {
    verify_or_throw(p, cfg());
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("[0] branch target out of range"),
              std::string::npos) << what;
    EXPECT_NE(what.find("[1] unpaired send/recv"), std::string::npos)
        << what;
  }
}

// --- Asymmetric cluster_overrides geometries -------------------------------

MachineConfig asym() {
  MachineConfig c = MachineConfig::paper(1, Technique::smt());
  c.cluster_renaming = false;
  c.cluster_overrides = {ClusterResourceConfig::for_issue_width(8),
                         ClusterResourceConfig::for_issue_width(4),
                         ClusterResourceConfig::for_issue_width(2),
                         ClusterResourceConfig::for_issue_width(2)};
  c.validate();
  return c;
}

TEST(Verifier, AsymmetricAcceptsWidePackOnWideCluster) {
  // 6 ALU ops fit the 8-issue cluster 0 but would overcommit a paper
  // 4-issue cluster.
  const Program p = assemble(
      "c0 add r1 = r2, r3 ; c0 sub r4 = r5, r6 ; c0 or r7 = r8, r9 ; "
      "c0 xor r10 = r11, r12 ; c0 and r13 = r14, r15 ; c0 add r16 = r2, r3\n");
  EXPECT_FALSE(verify_program(p, cfg()).empty());
  EXPECT_TRUE(verify_program(p, asym()).empty());
}

TEST(Verifier, AsymmetricRejectsWidePackOnNarrowCluster) {
  // The same width on the 2-issue cluster 3 must be rejected there even
  // though the symmetric machine accepts it.
  const Program p = assemble(
      "c3 add r1 = r2, r3 ; c3 sub r4 = r5, r6 ; c3 or r7 = r8, r9\n");
  EXPECT_TRUE(verify_program(p, cfg()).empty());
  const auto issues = verify_program(p, asym());
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].what.find("cluster 3 overcommitted"),
            std::string::npos);
}

TEST(Verifier, AsymmetricRejectsSecondMulOnNarrowCluster) {
  // for_issue_width(2) carries a single multiplier.
  const Program p = assemble("c2 mpyl r1 = r2, r3 ; c2 mpyh r4 = r5, r6\n");
  EXPECT_TRUE(verify_program(p, cfg()).empty());
  EXPECT_FALSE(verify_program(p, asym()).empty());
}

// --- Software-pipelined kernel metadata ------------------------------------

// A hand-built 2-stage kernel: a mul issued in the kernel's first
// instruction is read two cycles later (legal), with the back-branch in
// the last instruction.
Program swp_program(bool break_window, bool break_branch) {
  Program p = assemble(
      "c0 mpyl r1 = r2, r3\n"            // prologue (stage 0 of iter 0)
      "c0 add r4 = r5, r6\n"
      "c0 cmpgt b0 = r7, 0\n"
      "c0 mpyl r1 = r2, r3\n"            // kernel start (index 3)
      "c0 add r4 = r5, r6\n"
      "c0 cmpgt b0 = r7, 0 ; c0 br b0, @3\n"
      "c0 add r8 = r1, r4\n"             // epilogue
      "c0 add r9 = r1, r4\n"
      "c0 halt\n");
  SoftwarePipelinedLoop k;
  k.prologue_start = 0;
  k.kernel_start = 3;
  k.epilogue_end = 8;
  k.ii = 3;
  k.stages = 2;
  p.kernels.push_back(k);
  std::vector<VliwInstruction> code = test::builder_code(p);
  if (break_window) {
    // Read r1 one cycle after its mul issues: inside the latency window
    // once the kernel wraps.
    Operation bad = ops::alu(Opcode::kAdd, 0, 10, 1, 1);
    code[4].add(bad);
  }
  if (break_branch) {
    // Retarget the back-branch outside the kernel span.
    for (Operation& op : code[5].bundles[0])
      if (op.opc == Opcode::kBr) op.imm = 0;
  }
  p.finalize(std::move(code));
  return p;
}

TEST(Verifier, AcceptsWellFormedKernel) {
  const Program p = swp_program(false, false);
  EXPECT_TRUE(verify_program(p, cfg()).empty());
}

TEST(Verifier, RejectsKernelLatencyWindowViolation) {
  const Program p = swp_program(true, false);
  const auto issues = verify_program(p, cfg());
  ASSERT_FALSE(issues.empty());
  bool found = false;
  for (const VerifyIssue& issue : issues)
    if (issue.what.find("latency window") != std::string::npos) found = true;
  EXPECT_TRUE(found);
}

TEST(Verifier, RejectsKernelWithoutClosingBranch) {
  const Program p = swp_program(false, true);
  const auto issues = verify_program(p, cfg());
  ASSERT_FALSE(issues.empty());
  bool found = false;
  for (const VerifyIssue& issue : issues)
    if (issue.what.find("back-branch") != std::string::npos) found = true;
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace vexsim::cc
