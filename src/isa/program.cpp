#include "isa/program.hpp"

#include <sstream>

#include "isa/encoding.hpp"
#include "util/check.hpp"

namespace vexsim {

void Program::finalize(std::vector<VliwInstruction> code) {
  // Software-pipeline spans must describe a well-formed
  // prologue/kernel/epilogue region before they reach the decode tables or
  // the verifier.
  for (const SoftwarePipelinedLoop& k : kernels) {
    VEXSIM_CHECK_MSG(k.ii >= 1 && k.stages >= 2,
                     name << ": degenerate software-pipeline span (ii="
                          << k.ii << ", stages=" << k.stages << ")");
    VEXSIM_CHECK_MSG(
        k.kernel_start - k.prologue_start ==
            static_cast<std::uint32_t>(k.ii) * (k.stages - 1u),
        name << ": prologue span does not match (stages-1) * ii");
    VEXSIM_CHECK_MSG(
        k.epilogue_end >= k.kernel_start + k.ii &&
            k.epilogue_end <= code.size(),
        name << ": software-pipeline span out of range");
  }
  auto tables = std::make_shared<const DecodedProgram>(code, kernels);
  instr_addr.clear();
  instr_addr.reserve(tables->size());
  std::uint32_t addr = code_base;
  for (std::size_t pc = 0; pc < tables->size(); ++pc) {
    instr_addr.push_back(addr);
    addr += encoded_size_bytes(tables->view(pc));
  }
  code_bytes = addr - code_base;
  decoded = std::move(tables);
}

std::shared_ptr<const DataImage> word_image(
    const std::vector<std::uint32_t>& words) {
  // Sized once and written in place: synth pools run to a megabyte.
  DataImage bytes(words.size() * 4);
  std::uint8_t* out = bytes.data();
  for (const std::uint32_t w : words) {
    out[0] = static_cast<std::uint8_t>(w);
    out[1] = static_cast<std::uint8_t>(w >> 8);
    out[2] = static_cast<std::uint8_t>(w >> 16);
    out[3] = static_cast<std::uint8_t>(w >> 24);
    out += 4;
  }
  return std::make_shared<const DataImage>(std::move(bytes));
}

void Program::add_data(std::uint32_t addr,
                       std::shared_ptr<const DataImage> image) {
  VEXSIM_CHECK(image != nullptr);
  data.push_back(DataSegment{addr, std::move(image)});
}

void Program::add_data(std::uint32_t addr, DataImage bytes) {
  add_data(addr, std::make_shared<const DataImage>(std::move(bytes)));
}

void Program::add_data_words(std::uint32_t addr,
                             const std::vector<std::uint32_t>& words) {
  add_data(addr, word_image(words));
}

void Program::validate(int num_clusters) const {
  for (std::size_t i = 0; i < size(); ++i) {
    insn(i).for_each_op([&](const Operation& op) {
      auto check = [&](bool ok, const char* what) {
        VEXSIM_CHECK_MSG(ok, name << "[" << i << "]: " << what << " in "
                                  << to_string(op));
      };
      check(op.cluster < num_clusters, "cluster out of range");
      if (op.writes_gpr()) check(op.dst < kNumGprs, "bad dst");
      if (op.writes_breg()) check(op.dst < kNumBregs, "bad breg");
      if (reads_src1(op.opc)) check(op.src1 < kNumGprs, "bad src1");
      if (reads_src2(op.opc) && !op.src2_is_imm)
        check(op.src2 < kNumGprs,
              is_store(op.opc) ? "bad store value" : "bad src2");
      if (reads_bsrc(op.opc)) check(op.bsrc < kNumBregs, "bad bsrc");
      if (op.opc == Opcode::kBr || op.opc == Opcode::kBrf ||
          op.opc == Opcode::kGoto)
        check(op.imm >= 0 && static_cast<std::size_t>(op.imm) < size(),
              "branch target out of range");
      if (op.cls() == OpClass::kComm)
        check(op.chan < kNumChannels, "bad channel");
    });
  }
}

std::string to_string(const Program& prog) {
  std::ostringstream os;
  os << ";; program: " << prog.name << " (" << prog.size()
     << " instructions)\n";
  for (std::size_t i = 0; i < prog.size(); ++i) {
    const auto label = prog.labels.find(static_cast<std::uint32_t>(i));
    if (label != prog.labels.end()) os << label->second << ":\n";
    os << "  " << to_string(prog.insn(i)) << "\n";
  }
  return os.str();
}

}  // namespace vexsim
