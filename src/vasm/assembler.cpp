#include "vasm/assembler.hpp"

#include <algorithm>
#include <cctype>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "util/check.hpp"

namespace vexsim {

namespace {

// Minimal recursive-descent token scanner over one operation string.
class OpScanner {
 public:
  OpScanner(std::string_view text, int line) : text_(text), line_(line) {}

  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(byte(pos_))) ++pos_;
  }

  [[nodiscard]] bool at_end() {
    skip_ws();
    return pos_ >= text_.size();
  }

  // Reads an identifier-like word ([A-Za-z_][A-Za-z0-9_]*).
  std::string word() {
    skip_ws();
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(byte(pos_)) || text_[pos_] == '_'))
      ++pos_;
    VEXSIM_CHECK_MSG(pos_ > start, err("expected identifier"));
    return std::string(text_.substr(start, pos_ - start));
  }

  // An immediate: any value that fits in 32 bits, signed or unsigned.
  std::int32_t imm32() {
    skip_ws();
    std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
      ++pos_;
    if (pos_ + 1 < text_.size() && text_[pos_] == '0' &&
        (text_[pos_ + 1] == 'x' || text_[pos_ + 1] == 'X')) {
      pos_ += 2;
      while (pos_ < text_.size() && std::isxdigit(byte(pos_))) ++pos_;
    } else {
      while (pos_ < text_.size() && std::isdigit(byte(pos_))) ++pos_;
    }
    VEXSIM_CHECK_MSG(pos_ > start, err("expected integer"));
    // strtoll saturates on overflow, which the range check then rejects.
    const long long v = std::strtoll(
        std::string(text_.substr(start, pos_ - start)).c_str(), nullptr, 0);
    VEXSIM_CHECK_MSG(v >= std::numeric_limits<std::int32_t>::min() &&
                         v <= std::numeric_limits<std::uint32_t>::max(),
                     err("immediate does not fit in 32 bits"));
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(v));
  }

  void expect(char c) {
    skip_ws();
    VEXSIM_CHECK_MSG(pos_ < text_.size() && text_[pos_] == c,
                     err(std::string("expected '") + c + "'"));
    ++pos_;
  }

  [[nodiscard]] bool peek(char c) {
    skip_ws();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  bool accept(char c) {
    if (peek(c)) {
      ++pos_;
      return true;
    }
    return false;
  }

  // rN / bN / chN / integer / label distinction helpers.
  [[nodiscard]] bool peek_reg(char prefix) {
    skip_ws();
    return pos_ + 1 < text_.size() && text_[pos_] == prefix &&
           std::isdigit(byte(pos_ + 1));
  }

  // rN (below kNumGprs) or bN (below kNumBregs).
  int reg(char prefix) {
    VEXSIM_CHECK_MSG(peek_reg(prefix),
                     err(std::string("expected register '") + prefix + "N'"));
    return index(word(), std::string(1, prefix),
                 prefix == 'r' ? kNumGprs : kNumBregs, "register");
  }

  // The decimal index after `prefix` in `w` (c3, r12, ch0), below `limit`.
  int index(const std::string& w, const std::string& prefix, int limit,
            const char* what) const {
    const bool digits =
        w.size() > prefix.size() && w.compare(0, prefix.size(), prefix) == 0 &&
        std::all_of(w.begin() + static_cast<std::ptrdiff_t>(prefix.size()),
                    w.end(), [](char ch) {
                      return std::isdigit(static_cast<unsigned char>(ch));
                    });
    VEXSIM_CHECK_MSG(digits, err("expected " + std::string(what) + " " +
                                 prefix + "N, got '" + w + "'"));
    int v = 0;
    for (std::size_t i = prefix.size(); i < w.size(); ++i) {
      v = v * 10 + (w[i] - '0');
      VEXSIM_CHECK_MSG(v < limit, err(std::string(what) + " '" + w +
                                      "' out of range (limit " +
                                      std::to_string(limit) + ")"));
    }
    return v;
  }

  [[nodiscard]] std::string err(const std::string& what) const {
    std::ostringstream os;
    os << "line " << line_ << ": " << what << " in \"" << text_ << "\"";
    return os.str();
  }

 private:
  [[nodiscard]] unsigned char byte(std::size_t i) const {
    return static_cast<unsigned char>(text_[i]);
  }
  std::string_view text_;
  std::size_t pos_ = 0;
  int line_;
};

struct PendingTarget {
  std::size_t instr_index;
  std::size_t bundle_cluster;
  std::size_t op_index;
  std::string label;
  int line;
};

// Parses one operation ("c0 add r1 = r2, r3") into op; label branch targets
// are recorded in `targets` and patched after all labels are known.
Operation parse_op(std::string_view text, int line, std::size_t instr_index,
                   std::vector<PendingTarget>& targets) {
  OpScanner s(text, line);
  const int cluster = s.index(s.word(), "c", kMaxClusters, "cluster prefix");

  const std::string mnemonic = s.word();
  const Opcode opc = opcode_from_name(mnemonic);
  VEXSIM_CHECK_MSG(opc != Opcode::kCount,
                   s.err("unknown opcode '" + mnemonic + "'"));

  Operation op;
  op.opc = opc;
  op.cluster = static_cast<std::uint8_t>(cluster);

  auto parse_src2 = [&s, &op]() {
    if (s.peek_reg('r')) {
      op.src2 = static_cast<std::uint8_t>(s.reg('r'));
    } else {
      op.src2_is_imm = true;
      op.imm = s.imm32();
    }
  };

  auto parse_target = [&](std::size_t op_index_in_bundle) {
    if (s.accept('@')) {
      op.imm = s.imm32();
    } else {
      targets.push_back(PendingTarget{instr_index,
                                      static_cast<std::size_t>(cluster),
                                      op_index_in_bundle, s.word(), line});
    }
  };

  switch (op_class(opc)) {
    case OpClass::kNop:
      break;
    case OpClass::kAlu:
    case OpClass::kMul: {
      if (opc == Opcode::kSlct || opc == Opcode::kSlctf) {
        op.dst = static_cast<std::uint8_t>(s.reg('r'));
        s.expect('=');
        op.bsrc = static_cast<std::uint8_t>(s.reg('b'));
        s.expect(',');
        op.src1 = static_cast<std::uint8_t>(s.reg('r'));
        s.expect(',');
        parse_src2();
        break;
      }
      // dst: rN, or bN for comparisons.
      if (s.peek_reg('b')) {
        VEXSIM_CHECK_MSG(is_compare(opc),
                         s.err("only comparisons may target bN"));
        op.dst = static_cast<std::uint8_t>(s.reg('b'));
        op.dst_is_breg = true;
      } else {
        op.dst = static_cast<std::uint8_t>(s.reg('r'));
      }
      s.expect('=');
      if (opc == Opcode::kMovi) {
        op.imm = s.imm32();
        break;
      }
      op.src1 = static_cast<std::uint8_t>(s.reg('r'));
      if (reads_src2(opc)) {
        s.expect(',');
        parse_src2();
      }
      break;
    }
    case OpClass::kMem: {
      if (is_load(opc)) {
        op.dst = static_cast<std::uint8_t>(s.reg('r'));
        s.expect('=');
        op.imm = s.imm32();
        s.expect('[');
        op.src1 = static_cast<std::uint8_t>(s.reg('r'));
        s.expect(']');
      } else {
        op.imm = s.imm32();
        s.expect('[');
        op.src1 = static_cast<std::uint8_t>(s.reg('r'));
        s.expect(']');
        s.expect('=');
        op.src2 = static_cast<std::uint8_t>(s.reg('r'));
      }
      break;
    }
    case OpClass::kBranch: {
      if (opc == Opcode::kHalt) break;
      if (opc == Opcode::kGoto) {
        parse_target(0);
        break;
      }
      op.bsrc = static_cast<std::uint8_t>(s.reg('b'));
      s.expect(',');
      parse_target(0);
      break;
    }
    case OpClass::kComm: {
      if (opc == Opcode::kSend) {
        // send chN = rS
        op.chan = static_cast<std::uint8_t>(
            s.index(s.word(), "ch", kNumChannels, "channel"));
        s.expect('=');
        op.src1 = static_cast<std::uint8_t>(s.reg('r'));
      } else {
        op.dst = static_cast<std::uint8_t>(s.reg('r'));
        s.expect('=');
        op.chan = static_cast<std::uint8_t>(
            s.index(s.word(), "ch", kNumChannels, "channel"));
      }
      break;
    }
  }
  VEXSIM_CHECK_MSG(s.at_end(), s.err("trailing characters"));
  return op;
}

std::string strip(std::string_view v) {
  std::size_t b = 0, e = v.size();
  while (b < e && std::isspace(static_cast<unsigned char>(v[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(v[e - 1]))) --e;
  return std::string(v.substr(b, e - b));
}

}  // namespace

Program assemble(std::string_view source, std::string name) {
  Program prog;
  prog.name = std::move(name);
  std::vector<VliwInstruction> code;
  std::map<std::string, std::uint32_t> label_to_index;
  std::vector<PendingTarget> targets;

  std::istringstream in{std::string(source)};
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    // Strip comments: '#' and ';;' to end of line.
    if (const auto pos = raw.find('#'); pos != std::string::npos)
      raw.erase(pos);
    if (const auto pos = raw.find(";;"); pos != std::string::npos)
      raw.erase(pos);
    std::string line = strip(raw);
    if (line.empty()) continue;

    // Label?
    if (line.back() == ':') {
      const std::string label = strip(line.substr(0, line.size() - 1));
      VEXSIM_CHECK_MSG(!label.empty(), "line " << line_no << ": empty label");
      VEXSIM_CHECK_MSG(label_to_index.count(label) == 0,
                       "line " << line_no << ": duplicate label " << label);
      const auto idx = static_cast<std::uint32_t>(code.size());
      label_to_index[label] = idx;
      prog.labels[idx] = label;
      continue;
    }

    VliwInstruction insn;
    if (line != "nop") {
      // Split on ';' (but ';;' comments already removed).
      std::size_t start = 0;
      while (start <= line.size()) {
        std::size_t sep = line.find(';', start);
        if (sep == std::string::npos) sep = line.size();
        const std::string piece = strip(
            std::string_view(line).substr(start, sep - start));
        if (!piece.empty()) {
          const std::size_t targets_before = targets.size();
          Operation op =
              parse_op(piece, line_no, code.size(), targets);
          if (!op.is_nop()) {
            insn.add(op);
            // Fix up the recorded position of a label-target op now that we
            // know where it landed in its bundle.
            if (targets.size() > targets_before)
              targets.back().op_index = insn.bundles[op.cluster].size() - 1;
          }
        }
        start = sep + 1;
      }
    }
    code.push_back(insn);
  }

  // Patch label targets.
  for (const PendingTarget& t : targets) {
    const auto it = label_to_index.find(t.label);
    VEXSIM_CHECK_MSG(it != label_to_index.end(),
                     "line " << t.line << ": undefined label " << t.label);
    Bundle& b = code[t.instr_index].bundles[t.bundle_cluster];
    VEXSIM_CHECK_MSG(t.op_index < b.size(),
                     "line " << t.line << ": could not patch branch target");
    b[t.op_index].imm = static_cast<std::int32_t>(it->second);
  }

  prog.finalize(std::move(code));
  return prog;
}

}  // namespace vexsim
