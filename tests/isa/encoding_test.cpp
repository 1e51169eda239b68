#include "isa/encoding.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cc/options.hpp"
#include "isa/config.hpp"
#include "isa/program.hpp"
#include "support/code_oracle.hpp"
#include "util/rng.hpp"
#include "workloads/registry.hpp"

namespace vexsim {
namespace {

VliwInstruction sample_instruction() {
  VliwInstruction insn;
  insn.add(ops::alu(Opcode::kAdd, 0, 1, 2, 3));
  insn.add(ops::load(Opcode::kLdw, 1, 4, 5, 64));
  insn.add(ops::cmpi_breg(Opcode::kCmplt, 2, 1, 6, -7));
  insn.add(ops::send(3, 8, 1));
  return insn;
}

// A finalized program holding `code`; the encoder reads it through views.
Program finalized(std::vector<VliwInstruction> code) {
  Program prog;
  prog.name = "enc";
  prog.finalize(std::move(code));
  return prog;
}

std::vector<std::uint64_t> encode_one(const VliwInstruction& insn) {
  std::vector<std::uint64_t> words;
  encode(finalized({insn}).insn(0), words);
  return words;
}

std::uint32_t size_of(const VliwInstruction& insn) {
  return encoded_size_bytes(finalized({insn}).insn(0));
}

TEST(Encoding, RoundTripSingleInstruction) {
  const VliwInstruction insn = sample_instruction();
  const std::vector<std::uint64_t> words = encode_one(insn);
  std::size_t pos = 0;
  const VliwInstruction decoded = decode(words, pos);
  EXPECT_EQ(pos, words.size());
  EXPECT_EQ(decoded, insn);
}

TEST(Encoding, EmptyInstructionIsOneWord) {
  const VliwInstruction empty;
  EXPECT_EQ(size_of(empty), 8u);
  const std::vector<std::uint64_t> words = encode_one(empty);
  EXPECT_EQ(words.size(), 1u);
  std::size_t pos = 0;
  EXPECT_EQ(decode(words, pos), empty);
}

TEST(Encoding, SmallImmediateInline) {
  VliwInstruction insn;
  insn.add(ops::movi(0, 1, 32767));
  EXPECT_EQ(size_of(insn), 8u);
  insn = VliwInstruction{};
  insn.add(ops::movi(0, 1, -32768));
  EXPECT_EQ(size_of(insn), 8u);
}

TEST(Encoding, LargeImmediateTakesExtensionWord) {
  VliwInstruction insn;
  insn.add(ops::movi(0, 1, 100000));
  EXPECT_EQ(size_of(insn), 16u);
  const std::vector<std::uint64_t> words = encode_one(insn);
  std::size_t pos = 0;
  const VliwInstruction decoded = decode(words, pos);
  EXPECT_EQ(decoded.bundle(0)[0].imm, 100000);
}

TEST(Encoding, NegativeLargeImmediate) {
  VliwInstruction insn;
  insn.add(ops::movi(0, 1, -1000000));
  const std::vector<std::uint64_t> words = encode_one(insn);
  std::size_t pos = 0;
  EXPECT_EQ(decode(words, pos).bundle(0)[0].imm, -1000000);
}

TEST(Encoding, TruncatedStreamThrows) {
  VliwInstruction insn;
  insn.add(ops::movi(0, 1, 100000));  // needs an extension word
  std::vector<std::uint64_t> words = encode_one(insn);
  words.pop_back();
  std::size_t pos = 0;
  EXPECT_THROW((void)decode(words, pos), CheckError);
}

TEST(Encoding, FuzzRoundTrip) {
  Rng rng(2024);
  std::vector<VliwInstruction> code;
  for (int iter = 0; iter < 200; ++iter) {
    VliwInstruction insn;
    const int nops = rng.range(1, 6);
    for (int i = 0; i < nops; ++i) {
      Operation op;
      op.opc = static_cast<Opcode>(rng.range(1, int(Opcode::kCount) - 1));
      op.cluster = static_cast<std::uint8_t>(rng.below(kMaxClusters));
      op.dst = static_cast<std::uint8_t>(rng.below(kNumGprs));
      op.dst_is_breg = is_compare(op.opc) && rng.chance(0.5);
      if (op.dst_is_breg) op.dst = static_cast<std::uint8_t>(rng.below(8));
      op.src1 = static_cast<std::uint8_t>(rng.below(kNumGprs));
      op.src2 = static_cast<std::uint8_t>(rng.below(kNumGprs));
      op.src2_is_imm = rng.chance(0.3);
      op.bsrc = static_cast<std::uint8_t>(rng.below(kNumBregs));
      op.chan = static_cast<std::uint8_t>(rng.below(kNumChannels));
      op.imm = static_cast<std::int32_t>(rng.next_u32());
      insn.add(op);
    }
    code.push_back(insn);
  }
  const Program prog = finalized(code);
  test::expect_table_matches_builder(code, prog);
  for (std::size_t pc = 0; pc < code.size(); ++pc) {
    std::vector<std::uint64_t> words;
    encode(prog.insn(pc), words);
    EXPECT_EQ(words.size() * 8, encoded_size_bytes(prog.insn(pc)));
    std::size_t pos = 0;
    EXPECT_EQ(decode(words, pos), code[pc]) << "instruction " << pc;
  }
}

// The binary encoding is the twin of the flat op table: encoding every
// instruction of a finalized program through its view and decoding the
// words into builder instructions must finalize into the identical table,
// addresses and disassembly. The decoded builder vector is the oracle for
// both tables.
void expect_layout_round_trip(const Program& prog) {
  std::vector<std::uint64_t> words;
  for (std::size_t pc = 0; pc < prog.size(); ++pc) encode(prog.insn(pc), words);
  std::vector<VliwInstruction> code;
  for (std::size_t pos = 0; pos < words.size();)
    code.push_back(decode(words, pos));

  Program again;
  again.name = prog.name;
  again.labels = prog.labels;
  again.kernels = prog.kernels;
  again.finalize(code);
  test::expect_table_matches_builder(code, prog);
  test::expect_table_matches_builder(code, again);

  const DecodedProgram& a = *prog.decoded;
  const DecodedProgram& b = *again.decoded;
  ASSERT_EQ(a.size(), b.size()) << prog.name;
  ASSERT_EQ(a.op_count(), b.op_count()) << prog.name;
  EXPECT_TRUE(std::equal(a.data(), a.data() + a.size(), b.data()))
      << prog.name;
  EXPECT_TRUE(std::equal(a.ops(), a.ops() + a.op_count(), b.ops()))
      << prog.name;
  for (std::size_t pc = 0; pc < a.size(); ++pc)
    EXPECT_EQ(a.region_of(pc), b.region_of(pc)) << prog.name << pc;
  EXPECT_EQ(prog.instr_addr, again.instr_addr) << prog.name;
  EXPECT_EQ(prog.code_bytes, again.code_bytes) << prog.name;
  EXPECT_EQ(to_string(prog), to_string(again));
}

MachineConfig sym4x4() { return MachineConfig::paper(1, Technique::smt()); }

MachineConfig asym8422() {
  MachineConfig cfg = sym4x4();
  cfg.cluster_renaming = false;
  cfg.cluster_overrides = {ClusterResourceConfig::for_issue_width(8),
                           ClusterResourceConfig::for_issue_width(4),
                           ClusterResourceConfig::for_issue_width(2),
                           ClusterResourceConfig::for_issue_width(2)};
  cfg.validate();
  return cfg;
}

MachineConfig sym2x4() {
  MachineConfig cfg = sym4x4();
  cfg.clusters = 2;
  cfg.validate();
  return cfg;
}

TEST(Encoding, LayoutRoundTripEveryRegistryKernelAndSynthGrid) {
  std::vector<std::string> names;
  for (const wl::BenchmarkInfo& info : wl::benchmark_registry())
    names.push_back(info.name);
  for (const char* spec :
       {"synth:i0.9-m0.3-b0.1-c0.2-s3", "synth:i0.2-m0.5-b0.2-s4-f256",
        "synth:i1-m0.2-p0.5-n128-s5-ccpipe2", "synth:i0.5-m0.4-st64-s6"})
    names.emplace_back(spec);
  int pipelined = 0;
  for (const MachineConfig& cfg : {sym4x4(), asym8422(), sym2x4()}) {
    for (const char* variant : {"greedy", "cost_swp"}) {
      const cc::CompilerOptions opt = cc::CompilerOptions::parse(variant);
      for (const std::string& name : names) {
        SCOPED_TRACE(name + " / " + variant + " / " +
                     std::to_string(cfg.clusters) + " clusters");
        const auto prog = wl::make_benchmark(name, cfg, 0.05, opt);
        pipelined += prog->kernels.empty() ? 0 : 1;
        expect_layout_round_trip(*prog);
      }
    }
  }
  EXPECT_GT(pipelined, 0);  // the grid reaches the software-pipeline spans
}

}  // namespace
}  // namespace vexsim
