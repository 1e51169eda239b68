// Binary encoding of VLIW instructions.
//
// Each operation encodes to one 64-bit word; immediates that do not fit in
// 16 bits take one 64-bit extension word. The last operation word of an
// instruction carries a stop bit (Lx/IA-64 style). An empty instruction
// (compiler-emitted vertical nop cycle) encodes as a single nop word.
//
// The encoding exists for two reasons: it fixes the byte footprint of each
// instruction (the ICache model indexes by real byte addresses, and
// Program::finalize() derives them from encoded_size_bytes) and it gives
// tests a round-trip surface for the ISA. It is the binary twin of the
// program's flat op table: encode reads a finalized instruction through its
// view, decode yields a builder instruction to finalize again.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "isa/decoded_program.hpp"

namespace vexsim {

// Encoded size of one instruction in bytes (multiple of 8, minimum 8).
[[nodiscard]] std::uint32_t encoded_size_bytes(const InstructionView& insn);

// Appends the encoding of `insn` to `out`.
void encode(const InstructionView& insn, std::vector<std::uint64_t>& out);

// Decodes one instruction starting at words[pos]; advances pos past it.
[[nodiscard]] VliwInstruction decode(std::span<const std::uint64_t> words,
                                     std::size_t& pos);

}  // namespace vexsim
