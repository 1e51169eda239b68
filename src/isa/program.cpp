#include "isa/program.hpp"

#include <sstream>

#include "isa/encoding.hpp"
#include "util/check.hpp"

namespace vexsim {

void Program::finalize() {
  instr_addr.clear();
  instr_addr.reserve(code.size());
  std::uint32_t addr = code_base;
  for (const VliwInstruction& insn : code) {
    instr_addr.push_back(addr);
    addr += encoded_size_bytes(insn);
  }
  code_bytes = addr - code_base;
  // Software-pipeline spans must describe a well-formed
  // prologue/kernel/epilogue region before they reach the decode cache or
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
  decoded = std::make_shared<const DecodedProgram>(code, kernels);
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
  for (std::size_t i = 0; i < code.size(); ++i) {
    code[i].for_each_op([&](const Operation& op) {
      VEXSIM_CHECK_MSG(op.cluster < num_clusters,
                       name << "[" << i << "]: cluster " << int(op.cluster)
                            << " out of range");
      if (op.writes_gpr())
        VEXSIM_CHECK_MSG(op.dst < kNumGprs, name << "[" << i << "]: bad dst");
      if (op.writes_breg())
        VEXSIM_CHECK_MSG(op.dst < kNumBregs, name << "[" << i << "]: bad breg");
      if (reads_bsrc(op.opc))
        VEXSIM_CHECK_MSG(op.bsrc < kNumBregs, name << "[" << i << "]: bad bsrc");
      if (op.opc == Opcode::kBr || op.opc == Opcode::kBrf ||
          op.opc == Opcode::kGoto) {
        VEXSIM_CHECK_MSG(op.imm >= 0 &&
                             static_cast<std::size_t>(op.imm) < code.size(),
                         name << "[" << i << "]: branch target " << op.imm
                              << " out of range");
      }
      if (op.cls() == OpClass::kComm)
        VEXSIM_CHECK_MSG(op.chan < kNumChannels,
                         name << "[" << i << "]: bad channel");
    });
  }
}

std::string to_string(const Program& prog) {
  std::ostringstream os;
  os << ";; program: " << prog.name << " (" << prog.code.size()
     << " instructions)\n";
  for (std::size_t i = 0; i < prog.code.size(); ++i) {
    const auto label = prog.labels.find(static_cast<std::uint32_t>(i));
    if (label != prog.labels.end()) os << label->second << ":\n";
    os << "  " << to_string(prog.code[i]) << "\n";
  }
  return os.str();
}

}  // namespace vexsim
