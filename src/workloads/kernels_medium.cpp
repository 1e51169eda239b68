// Medium-ILP kernels: cjpeg, djpeg, g721encode, g721decode.
//
// Moderate parallelism: short butterfly/filter sections feeding serial
// recurrences, landing near the paper's IPCp ≈ 1.7 on the 16-issue machine.
#include "workloads/kernels.hpp"

#include <vector>

#include "cc/compiler.hpp"
#include "util/rng.hpp"

namespace vexsim::wl {

using cc::Builder;
using cc::VReg;
using cc::kMemSpaceReadOnly;

namespace {
std::vector<std::uint32_t> random_words(std::uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<std::uint32_t> w(static_cast<std::size_t>(n));
  for (auto& x : w) x = rng.next_u32();
  return w;
}
int scaled(double base, const KernelScale& s) {
  const int v = static_cast<int>(base * s.outer);
  return v < 1 ? 1 : v;
}
}  // namespace

// JPEG encoder: 1-D forward DCT on one row + quantization (serial multiply
// chain) + zigzag-ish store. The image working set (≈96 KiB) exceeds the
// 64 KiB DCache, giving the paper's IPCr (1.12) < IPCp (1.66) gap.
Program make_cjpeg(const MachineConfig& cfg, KernelScale s) {
  constexpr int kImageWords = 24 * 1024;  // 96 KiB
  constexpr std::uint32_t kIn = 0x0010'0000;
  constexpr std::uint32_t kOut = 0x0012'0000;

  Builder b("cjpeg");
  const VReg in = b.movi(static_cast<std::int32_t>(kIn));
  const VReg out = b.movi(static_cast<std::int32_t>(kOut));
  const VReg outer = b.fresh_global();
  b.assign_i(outer, scaled(40, s));
  const int outer_blk = b.new_block();
  b.jump(outer_blk);
  b.switch_to(outer_blk);

  const VReg idx = b.fresh_global();
  const VReg qacc = b.fresh_global();  // running quantizer state (serial)
  b.assign_i(idx, 0);
  b.assign_i(qacc, 16);
  const int body = b.new_block();
  b.jump(body);
  b.switch_to(body);

  const VReg p = b.alu(Opcode::kAdd, in, idx);
  std::vector<VReg> x(8);
  for (int i = 0; i < 8; ++i)
    x[static_cast<std::size_t>(i)] =
        b.load(Opcode::kLdw, p, i * 4, kMemSpaceReadOnly);
  // Butterfly stage (parallel).
  const VReg s0 = b.alu(Opcode::kAdd, x[0], x[7]);
  const VReg s1 = b.alu(Opcode::kAdd, x[1], x[6]);
  const VReg s2 = b.alu(Opcode::kAdd, x[2], x[5]);
  const VReg s3 = b.alu(Opcode::kAdd, x[3], x[4]);
  const VReg d0 = b.alu(Opcode::kSub, x[0], x[7]);
  const VReg d1 = b.alu(Opcode::kSub, x[1], x[6]);
  // Coefficient stage: serial quantizer chain — each coefficient is scaled
  // by q twice ((s·q·q)>>16, the dead-zone quantizer shape) and feeds the
  // next through qacc. This is the Huffman-coder stand-in that keeps cjpeg
  // in the paper's medium class despite the parallel butterflies above.
  VReg q = qacc;
  auto quant = [&](VReg sum) {
    return b.alui(Opcode::kShr, b.mpy(b.mpy(sum, q), q), 16);
  };
  const VReg c0 = quant(b.alu(Opcode::kAdd, s0, s3));
  q = b.alui(Opcode::kAnd, b.alu(Opcode::kXor, q, c0), 0xFF);
  const VReg c1 = quant(b.alu(Opcode::kSub, s0, s3));
  q = b.alui(Opcode::kAnd, b.alu(Opcode::kXor, q, c1), 0xFF);
  const VReg c2 = quant(b.alu(Opcode::kAdd, s1, s2));
  q = b.alui(Opcode::kAnd, b.alu(Opcode::kXor, q, c2), 0xFF);
  const VReg c3 = quant(b.alu(Opcode::kAdd, d0, d1));
  q = b.alui(Opcode::kOr, b.alu(Opcode::kXor, q, c3), 1);
  b.assign(qacc, q);
  const VReg op_ = b.alu(Opcode::kAdd, out, idx);
  b.store(Opcode::kStw, op_, 0, c0, 2);
  b.store(Opcode::kStw, op_, 4, c1, 3);
  b.store(Opcode::kStw, op_, 8, c2, 4);
  b.store(Opcode::kStw, op_, 12, c3, 5);

  b.assign_alui(idx, Opcode::kAdd, idx, 32);
  const VReg more = b.cmpi_b(Opcode::kCmplt, idx, kImageWords * 4);
  b.branch(more, body);

  const int outer_end = b.new_block();
  b.switch_to(outer_end);
  b.assign_alui(outer, Opcode::kAdd, outer, -1);
  const VReg again = b.cmpi_b(Opcode::kCmpgt, outer, 0);
  b.branch(again, outer_blk);
  const int fin = b.new_block();
  b.switch_to(fin);
  b.halt();

  Program prog = cc::compile(std::move(b).take(), cfg, s.compiler, s.stats);
  prog.add_data_words(kIn, random_words(0x0CAFE, kImageWords));
  return prog;
}

// JPEG decoder: dequantize + short inverse butterfly per row, small working
// set (fits the cache: IPCr ≈ IPCp ≈ 1.77).
Program make_djpeg(const MachineConfig& cfg, KernelScale s) {
  constexpr int kWords = 8 * 1024;  // 32 KiB, cache-resident
  constexpr std::uint32_t kIn = 0x0014'0000;
  constexpr std::uint32_t kOut = 0x0015'0000;

  Builder b("djpeg");
  const VReg in = b.movi(static_cast<std::int32_t>(kIn));
  const VReg out = b.movi(static_cast<std::int32_t>(kOut));
  const VReg outer = b.fresh_global();
  b.assign_i(outer, scaled(120, s));
  const int outer_blk = b.new_block();
  b.jump(outer_blk);
  b.switch_to(outer_blk);

  const VReg idx = b.fresh_global();
  const VReg dc = b.fresh_global();  // DC predictor: serial across rows
  b.assign_i(idx, 0);
  b.assign_i(dc, 0);
  const int body = b.new_block();
  b.jump(body);
  b.switch_to(body);

  const VReg p = b.alu(Opcode::kAdd, in, idx);
  const VReg v0 = b.load(Opcode::kLdw, p, 0, kMemSpaceReadOnly);
  const VReg v1 = b.load(Opcode::kLdw, p, 4, kMemSpaceReadOnly);
  const VReg v2 = b.load(Opcode::kLdw, p, 8, kMemSpaceReadOnly);
  const VReg v3 = b.load(Opcode::kLdw, p, 12, kMemSpaceReadOnly);
  // DC prediction chain (serial, three multiply stages deep as in the
  // dequant + predictor path).
  const VReg dq0 = b.alu(Opcode::kAdd, b.mpyi(v0, 13), dc);
  const VReg dq1 = b.alu(Opcode::kAdd, b.mpyi(v1, 7), dq0);
  const VReg dq2 = b.alu(Opcode::kAdd, b.mpy(dq1, v2), dq0);
  const VReg dq3 =
      b.alu(Opcode::kAdd, dq2, b.alui(Opcode::kShr, b.mpy(dq2, v3), 4));
  // Short even/odd reconstruction.
  const VReg e = b.alu(Opcode::kAdd, dq3, b.mpyi(v2, 3));
  const VReg o = b.alu(Opcode::kSub, dq3, b.mpyi(v3, 5));
  const VReg r0 = b.alui(Opcode::kShr, b.alu(Opcode::kAdd, e, o), 4);
  const VReg r1 = b.alui(Opcode::kShr, b.alu(Opcode::kSub, e, o), 4);
  b.assign_alui(dc, Opcode::kAnd,
                b.alu(Opcode::kXor, dq3, b.alui(Opcode::kShr, dq3, 3)), 0x3FF);
  const VReg q_ = b.alu(Opcode::kAdd, out, idx);
  b.store(Opcode::kStw, q_, 0, r0, 2);
  b.store(Opcode::kStw, q_, 4, r1, 3);

  b.assign_alui(idx, Opcode::kAdd, idx, 16);
  const VReg more = b.cmpi_b(Opcode::kCmplt, idx, kWords * 4);
  b.branch(more, body);

  const int outer_end = b.new_block();
  b.switch_to(outer_end);
  b.assign_alui(outer, Opcode::kAdd, outer, -1);
  const VReg again = b.cmpi_b(Opcode::kCmpgt, outer, 0);
  b.branch(again, outer_blk);
  const int fin = b.new_block();
  b.switch_to(fin);
  b.halt();

  Program prog = cc::compile(std::move(b).take(), cfg, s.compiler, s.stats);
  prog.add_data_words(kIn, random_words(0xD1BE6, kWords));
  return prog;
}

namespace {

// Shared ADPCM predictor core for g721 encode/decode: a 6-tap FIR (taps in
// parallel) feeding a serial step-size adaptation recurrence.
Program make_g721(const MachineConfig& cfg, KernelScale s, bool encode) {
  constexpr int kSamples = 4 * 1024;  // 16 KiB, cache-resident
  const std::uint32_t kIn = encode ? 0x0016'0000u : 0x0017'0000u;
  const std::uint32_t kOut = encode ? 0x0018'0000u : 0x0019'0000u;

  Builder b(encode ? "g721encode" : "g721decode");
  const VReg in = b.movi(static_cast<std::int32_t>(kIn));
  const VReg out = b.movi(static_cast<std::int32_t>(kOut));
  const VReg outer = b.fresh_global();
  b.assign_i(outer, scaled(200, s));
  const int outer_blk = b.new_block();
  b.jump(outer_blk);
  b.switch_to(outer_blk);

  const VReg idx = b.fresh_global();
  const VReg step = b.fresh_global();   // adaptive step size (serial)
  const VReg pred = b.fresh_global();   // signal predictor (serial)
  b.assign_i(idx, 0);
  b.assign_i(step, 16);
  b.assign_i(pred, 0);
  const int body = b.new_block();
  b.jump(body);
  b.switch_to(body);

  const VReg p = b.alu(Opcode::kAdd, in, idx);
  // FIR taps (parallel section).
  const VReg x0 = b.load(Opcode::kLdw, p, 0, kMemSpaceReadOnly);
  const VReg x1 = b.load(Opcode::kLdw, p, 4, kMemSpaceReadOnly);
  const VReg x2 = b.load(Opcode::kLdw, p, 8, kMemSpaceReadOnly);
  const VReg f = b.alu(
      Opcode::kAdd, b.mpyi(x0, encode ? 3 : 5),
      b.alu(Opcode::kAdd, b.mpyi(x1, -2), b.mpyi(x2, 1)));
  // Serial adaptation: diff → quantize → requantize → update step and
  // predictor (the ADPCM feedback loop).
  const VReg diff = b.alu(Opcode::kSub, f, pred);
  const VReg mag = b.alu(Opcode::kMax, diff, b.alu(Opcode::kSub, b.movi(0), diff));
  const VReg code = b.alui(Opcode::kMin, b.alu(Opcode::kShru, mag,
                                               b.alui(Opcode::kAnd, step, 15)),
                           7);
  const VReg requant = b.alui(Opcode::kShr, b.mpy(code, step), 2);
  const VReg nstep = b.alui(
      Opcode::kAnd,
      b.alu(Opcode::kAdd, step, b.alui(Opcode::kSub, requant, 3)), 0x1F);
  const VReg npred = b.alu(Opcode::kAdd, pred,
                           b.alui(Opcode::kShr, b.alu(Opcode::kSub, diff, requant), 1));
  b.assign(step, b.alui(Opcode::kMax, nstep, 1));
  b.assign(pred, npred);
  b.store(Opcode::kStw, b.alu(Opcode::kAdd, out, idx), 0, code, 2);

  b.assign_alui(idx, Opcode::kAdd, idx, 4);
  const VReg more = b.cmpi_b(Opcode::kCmplt, idx, kSamples * 4);
  b.branch(more, body);

  const int outer_end = b.new_block();
  b.switch_to(outer_end);
  b.assign_alui(outer, Opcode::kAdd, outer, -1);
  const VReg again = b.cmpi_b(Opcode::kCmpgt, outer, 0);
  b.branch(again, outer_blk);
  const int fin = b.new_block();
  b.switch_to(fin);
  b.halt();

  Program prog = cc::compile(std::move(b).take(), cfg, s.compiler, s.stats);
  prog.add_data_words(kIn, random_words(encode ? 0x6721E : 0x6721D, kSamples + 4));
  return prog;
}

}  // namespace

Program make_g721encode(const MachineConfig& cfg, KernelScale s) {
  return make_g721(cfg, s, /*encode=*/true);
}

Program make_g721decode(const MachineConfig& cfg, KernelScale s) {
  return make_g721(cfg, s, /*encode=*/false);
}

}  // namespace vexsim::wl
