// A program: finalized VLIW code plus initial data segments.
//
// The code exists in one form only: the decode tables of
// decoded_program.hpp (one flat DecodedOp table plus one per-instruction
// table), shared through `decoded`. Builders (the compiler's emit pass, the
// assembler, the binary decoder, tests) fill a std::vector<VliwInstruction>
// and hand it to finalize(), which packs it and drops it; readers walk the
// tables through insn(pc). To edit code after building, rebuild the builder
// vector and finalize again.
//
// Programs are immutable once built and shared (the workload memo serves one
// Program to every point that asks for it). Each data segment points at an
// immutable byte image that may itself be shared across programs: wl_synth
// builds one pool image per (seed, footprint) and every program generated
// from that spec, on any machine, references it. Nothing writes through an
// image: a ThreadContext's memory reads the images in place and copies a
// page only when a store first writes it (mem/main_memory.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "isa/decoded_program.hpp"
#include "isa/instruction.hpp"

namespace vexsim {

using DataImage = std::vector<std::uint8_t>;

// Little-endian byte image of 32-bit words, the layout add_data_words loads.
[[nodiscard]] std::shared_ptr<const DataImage> word_image(
    const std::vector<std::uint32_t>& words);

struct DataSegment {
  std::uint32_t addr = 0;
  std::shared_ptr<const DataImage> image;  // never null

  [[nodiscard]] const DataImage& bytes() const { return *image; }
};

struct Program {
  std::string name;
  std::vector<DataSegment> data;
  std::uint32_t code_base = 0x0000'1000;  // byte address of instruction 0
  std::map<std::uint32_t, std::string> labels;  // instr index -> label
  // Software-pipelined loop spans recorded by the compiler's modulo
  // scheduler (empty for unpipelined programs). finalize() validates the
  // spans and threads them into the decode tables; the verifier replays
  // each kernel cyclically against them.
  std::vector<SoftwarePipelinedLoop> kernels;

  // Derived by finalize(): byte address of each instruction (for the ICache
  // model) computed from the binary encoding sizes, and the code itself.
  std::vector<std::uint32_t> instr_addr;
  std::uint32_t code_bytes = 0;
  std::shared_ptr<const DecodedProgram> decoded;

  // Packs `code` into the decode tables and derives the addresses; the
  // builder vector is consumed. `kernels` must be set first.
  void finalize(std::vector<VliwInstruction> code);
  [[nodiscard]] bool finalized() const { return decoded != nullptr; }

  // Instruction count; 0 before finalize().
  [[nodiscard]] std::size_t size() const {
    return decoded != nullptr ? decoded->size() : 0;
  }
  [[nodiscard]] InstructionView insn(std::size_t pc) const {
    return decoded->view(pc);
  }

  // Data-segment builders. The byte and word forms wrap fresh bytes in an
  // image of their own; the image form shares an existing one. Segments do
  // not feed finalize(), so they may be added before or after it.
  void add_data(std::uint32_t addr, std::shared_ptr<const DataImage> image);
  void add_data(std::uint32_t addr, DataImage bytes);
  void add_data_words(std::uint32_t addr,
                      const std::vector<std::uint32_t>& words);

  // Sanity checks: branch targets in range, cluster indices within the given
  // cluster count, every register an operation reads or writes in range.
  // Throws CheckError on violation.
  void validate(int num_clusters) const;
};

// Multi-line disassembly with labels and instruction indices.
[[nodiscard]] std::string to_string(const Program& prog);

}  // namespace vexsim
