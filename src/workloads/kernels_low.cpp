// Low-ILP kernels: mcf, bzip2, blowfish, gsmencode.
//
// Dominated by pointer chasing, data-dependent branches, and serial
// recurrences — the paper's l class (IPCp ≈ 0.8 – 1.5), with mcf and
// blowfish also cache-hostile (IPCr markedly below IPCp).
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

// Minimum-cost-flow arc scan: pointer chase over a ~1 MiB randomized node
// pool (every hop a likely DCache miss), comparing arc costs and keeping a
// running minimum. The paper's most memory-bound benchmark (0.96 vs 1.34).
Program make_mcf(const MachineConfig& cfg, KernelScale s) {
  constexpr int kNodes = 5 * 1024;      // 16 B/node → 80 KiB pool
  constexpr int kNodeBytes = 16;
  constexpr std::uint32_t kPool = 0x0020'0000;
  constexpr std::uint32_t kOut = 0x0040'0000;

  // Node layout: [next_offset, cost, flow, pad]; next offsets form one long
  // random cycle through the pool (Sattolo permutation).
  std::vector<std::uint32_t> pool(static_cast<std::size_t>(kNodes) * 4);
  {
    Rng rng(0x3CF);
    std::vector<std::uint32_t> perm(static_cast<std::size_t>(kNodes));
    for (int i = 0; i < kNodes; ++i)
      perm[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(i);
    for (int i = kNodes - 1; i > 0; --i) {
      const auto j = rng.below(static_cast<std::uint32_t>(i));  // Sattolo
      std::swap(perm[static_cast<std::size_t>(i)],
                perm[static_cast<std::size_t>(j)]);
    }
    for (int i = 0; i < kNodes; ++i) {
      pool[static_cast<std::size_t>(i) * 4 + 0] =
          kPool + perm[static_cast<std::size_t>(i)] * kNodeBytes;
      pool[static_cast<std::size_t>(i) * 4 + 1] = rng.below(100000);
      pool[static_cast<std::size_t>(i) * 4 + 2] = rng.below(64);
      pool[static_cast<std::size_t>(i) * 4 + 3] = 0;
    }
  }

  Builder b("mcf");
  const VReg out = b.movi(static_cast<std::int32_t>(kOut));
  const VReg outer = b.fresh_global();
  b.assign_i(outer, scaled(30, s));
  const int outer_blk = b.new_block();
  b.jump(outer_blk);
  b.switch_to(outer_blk);

  const VReg node = b.fresh_global();
  const VReg best = b.fresh_global();
  const VReg hops = b.fresh_global();
  b.assign_i(node, static_cast<std::int32_t>(kPool));
  b.assign_i(best, 0x7FFFFFFF);
  b.assign_i(hops, 4000);
  const int body = b.new_block();
  b.jump(body);
  b.switch_to(body);

  // The chase: next pointer is the critical recurrence; the cost load hangs
  // off the *next* pointer (arc inspection), deepening the serial chain the
  // way mcf's arc scans do.
  const VReg next = b.load(Opcode::kLdw, node, 0, kMemSpaceReadOnly);
  const VReg cost = b.load(Opcode::kLdw, next, 4, kMemSpaceReadOnly);
  const VReg flow = b.load(Opcode::kLdw, node, 8, kMemSpaceReadOnly);
  const VReg adj = b.alu(Opcode::kAdd, cost, b.alui(Opcode::kShl, flow, 2));
  const VReg lt = b.cmp_b(Opcode::kCmpltu, adj, best);
  b.assign(best, b.slct(lt, adj, best));
  b.assign(node, next);
  b.assign_alui(hops, Opcode::kAdd, hops, -1);
  const VReg more = b.cmpi_b(Opcode::kCmpgt, hops, 0);
  b.branch(more, body);

  const int outer_end = b.new_block();
  b.switch_to(outer_end);
  b.store(Opcode::kStw, out, 0, best, 2);
  b.assign_alui(outer, Opcode::kAdd, outer, -1);
  const VReg again = b.cmpi_b(Opcode::kCmpgt, outer, 0);
  b.branch(again, outer_blk);
  const int fin = b.new_block();
  b.switch_to(fin);
  b.halt();

  Program prog = cc::compile(std::move(b).take(), cfg, s.compiler, s.stats);
  prog.add_data_words(kPool, pool);
  return prog;
}

// bzip2 compression front-end: byte histogram + run detection with
// data-dependent control flow (taken branches with no predictor are the
// bottleneck; IPC ≈ 0.8 with almost no cache sensitivity).
Program make_bzip2(const MachineConfig& cfg, KernelScale s) {
  constexpr int kBytes = 16 * 1024;
  constexpr std::uint32_t kIn = 0x0044'0000;
  constexpr std::uint32_t kHist = 0x0045'0000;

  Builder b("bzip2");
  const VReg in = b.movi(static_cast<std::int32_t>(kIn));
  const VReg hist = b.movi(static_cast<std::int32_t>(kHist));
  const VReg outer = b.fresh_global();
  b.assign_i(outer, scaled(60, s));
  const int outer_blk = b.new_block();
  b.jump(outer_blk);
  b.switch_to(outer_blk);

  const VReg idx = b.fresh_global();
  const VReg runs = b.fresh_global();
  const VReg prev = b.fresh_global();
  b.assign_i(idx, 0);
  b.assign_i(runs, 0);
  b.assign_i(prev, -1);
  // Short branchy blocks: bzip2's front end is dominated by data-dependent
  // control flow around tiny amounts of work — every block here carries a
  // compare-to-branch delay and most transitions pay the taken penalty,
  // which is what pins IPC near 0.8 on a 16-wide machine.
  const int body = b.new_block();
  const int hist_blk = b.new_block();  // body falls through (byte differs)
  const int swap_blk = b.new_block();  // hist falls through
  const int run_blk = b.new_block();   // reached by the `same` branch
  const int join = b.new_block();
  b.jump(body);

  b.switch_to(body);
  const VReg byte = b.load(Opcode::kLdbu, b.alu(Opcode::kAdd, in, idx), 0,
                           kMemSpaceReadOnly);
  const VReg old_prev = b.mov(prev);  // pre-update value, read across blocks
  const VReg same = b.cmp_b(Opcode::kCmpeq, byte, prev);
  b.assign(prev, byte);
  b.assign_alui(idx, Opcode::kAdd, idx, 1);
  b.branch(same, run_blk);  // data-dependent taken branch on repeated bytes

  b.switch_to(hist_blk);
  // Histogram update: a serial load-modify-store through one alias space,
  // with a context-mixed bucket index (BWT-style) deepening the chain.
  const VReg bucket = b.alui(
      Opcode::kAnd, b.alu(Opcode::kAdd, byte, old_prev), 0xFF);
  const VReg slot = b.alu(Opcode::kAdd, hist, b.alui(Opcode::kShl, bucket, 2));
  const VReg count = b.load(Opcode::kLdw, slot, 0, /*space=*/1);
  const VReg bumped = b.alu(Opcode::kAdd, b.alui(Opcode::kShru, count, 24),
                            b.alui(Opcode::kAdd, count, 1));
  b.store(Opcode::kStw, slot, 0, bumped, /*space=*/1);
  // Bucket-ordering test — a second data-dependent branch, as in bzip2's
  // sorting comparisons.
  const VReg bigger = b.cmp_b(Opcode::kCmpltu, old_prev, byte);
  b.branch(bigger, join);

  b.switch_to(swap_blk);
  b.assign_alu(runs, Opcode::kXor, runs, byte);  // bookkeeping only
  b.jump(join);

  b.switch_to(run_blk);
  b.assign_alui(runs, Opcode::kAdd, runs, 1);  // falls through into join

  b.switch_to(join);
  const VReg more = b.cmpi_b(Opcode::kCmplt, idx, kBytes);
  b.branch(more, body);

  const int outer_end = b.new_block();
  b.switch_to(outer_end);
  b.store(Opcode::kStw, hist, 1024, runs, 2);
  b.assign_alui(outer, Opcode::kAdd, outer, -1);
  const VReg again = b.cmpi_b(Opcode::kCmpgt, outer, 0);
  b.branch(again, outer_blk);
  const int fin = b.new_block();
  b.switch_to(fin);
  b.halt();

  Program prog = cc::compile(std::move(b).take(), cfg, s.compiler, s.stats);
  // Compressible input: long-ish runs so `same` branches are taken often.
  {
    Rng rng(0xB2122);
    std::vector<std::uint32_t> words(kBytes / 4);
    std::uint32_t cur = 0;
    for (auto& w : words) {
      if (rng.chance(0.4)) cur = rng.below(256);
      w = cur | (cur << 8) | (cur << 16) | (cur << 24);
      if (rng.chance(0.5)) w ^= rng.below(256) << 8;
    }
    prog.add_data_words(kIn, words);
  }
  return prog;
}

// Blowfish CBC encryption: four dependent S-box lookups per Feistel round,
// 4 rounds per block here, streaming over a 256 KiB buffer (stream misses
// give the IPCr 1.11 < IPCp 1.47 gap while the 4 KiB S-boxes stay resident).
Program make_blowfish(const MachineConfig& cfg, KernelScale s) {
  constexpr int kSboxWords = 4 * 256;
  constexpr int kDataWords = 64 * 1024;  // 256 KiB stream
  constexpr std::uint32_t kSbox = 0x0050'0000;
  constexpr std::uint32_t kData = 0x0052'0000;

  Builder b("blowfish");
  const VReg sbox = b.movi(static_cast<std::int32_t>(kSbox));
  const VReg data = b.movi(static_cast<std::int32_t>(kData));
  const VReg outer = b.fresh_global();
  b.assign_i(outer, scaled(12, s));
  const int outer_blk = b.new_block();
  b.jump(outer_blk);
  b.switch_to(outer_blk);

  const VReg idx = b.fresh_global();
  const VReg chain = b.fresh_global();  // CBC chaining value (serial)
  b.assign_i(idx, 0);
  b.assign_i(chain, 0x12345678);
  const int body = b.new_block();
  b.jump(body);
  b.switch_to(body);

  const VReg ptr = b.alu(Opcode::kAdd, data, idx);
  const VReg lt0 = b.load(Opcode::kLdw, ptr, 0, /*space=*/1);
  VReg l = b.alu(Opcode::kXor, lt0, chain);
  VReg r = b.load(Opcode::kLdw, ptr, 4, /*space=*/1);
  for (int round = 0; round < 4; ++round) {
    // F(l): S-box lookups with the Feistel F's serial structure — the
    // second lookup of each half depends on the first one's result, which
    // is what holds blowfish near IPC 1.5 on a wide machine.
    const VReg a = b.alui(Opcode::kAnd, b.alui(Opcode::kShru, l, 24), 0xFF);
    const VReg c = b.alui(Opcode::kAnd, b.alui(Opcode::kShru, l, 8), 0xFF);
    const VReg sa = b.load(Opcode::kLdw, b.alu(Opcode::kAdd, sbox,
                                               b.alui(Opcode::kShl, a, 2)),
                           0, kMemSpaceReadOnly);
    const VReg sc = b.load(Opcode::kLdw, b.alu(Opcode::kAdd, sbox,
                                               b.alui(Opcode::kShl, c, 2)),
                           2048, kMemSpaceReadOnly);
    const VReg bidx = b.alui(Opcode::kAnd,
                             b.alu(Opcode::kAdd, b.alui(Opcode::kShru, l, 16),
                                   sa),
                             0xFF);
    const VReg sb = b.load(Opcode::kLdw, b.alu(Opcode::kAdd, sbox,
                                               b.alui(Opcode::kShl, bidx, 2)),
                           1024, kMemSpaceReadOnly);
    const VReg didx =
        b.alui(Opcode::kAnd, b.alu(Opcode::kXor, sb, sc), 0xFF);
    const VReg sd = b.load(Opcode::kLdw, b.alu(Opcode::kAdd, sbox,
                                               b.alui(Opcode::kShl, didx, 2)),
                           3072, kMemSpaceReadOnly);
    const VReg f = b.alu(Opcode::kAdd,
                         b.alu(Opcode::kXor, b.alu(Opcode::kAdd, sa, sb), sc),
                         sd);
    const VReg nl = b.alu(Opcode::kXor, r, f);
    r = l;
    l = nl;
  }
  b.store(Opcode::kStw, ptr, 0, l, /*space=*/1);
  b.store(Opcode::kStw, ptr, 4, r, /*space=*/1);
  b.assign(chain, l);
  // One cache line per block: every iteration streams fresh data, which
  // reproduces the paper's IPCr dip (1.11 vs 1.47).
  b.assign_alui(idx, Opcode::kAdd, idx, 64);
  const VReg more = b.cmpi_b(Opcode::kCmplt, idx, kDataWords * 4);
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
  prog.add_data_words(kSbox, random_words(0xB70F, kSboxWords));
  prog.add_data_words(kData, random_words(0xB70D, kDataWords));
  return prog;
}

// GSM full-rate encoder LPC section: iterative Schur-style recursion —
// nearly pure serial dependence with multiplies in the chain (IPC ≈ 1.07,
// fully cache-resident).
Program make_gsmencode(const MachineConfig& cfg, KernelScale s) {
  constexpr int kSamples = 4 * 1024;
  constexpr std::uint32_t kIn = 0x0060'0000;

  Builder b("gsmencode");
  const VReg in = b.movi(static_cast<std::int32_t>(kIn));
  const VReg outer = b.fresh_global();
  b.assign_i(outer, scaled(160, s));
  const int outer_blk = b.new_block();
  b.jump(outer_blk);
  b.switch_to(outer_blk);

  const VReg idx = b.fresh_global();
  const VReg acc = b.fresh_global();
  const VReg refl = b.fresh_global();
  b.assign_i(idx, 0);
  b.assign_i(acc, 1);
  b.assign_i(refl, 0x40);
  const int body = b.new_block();
  b.jump(body);
  b.switch_to(body);

  const VReg x = b.load(Opcode::kLdw, b.alu(Opcode::kAdd, in, idx), 0,
                        kMemSpaceReadOnly);
  // Serial Schur recursion: each step feeds the next through acc and refl,
  // with a division-like shift-subtract refinement inside every step.
  VReg a = acc;
  VReg k = refl;
  for (int step = 0; step < 3; ++step) {
    const VReg e = b.alu(Opcode::kSub, x, b.alui(Opcode::kShr, b.mpy(a, k), 7));
    const VReg e2 =
        b.alu(Opcode::kSub, e, b.alui(Opcode::kShr, b.mpy(e, k), 9));
    a = b.alu(Opcode::kAdd, a, b.alui(Opcode::kShr, e2, 2));
    k = b.alui(Opcode::kAnd,
               b.alu(Opcode::kXor, k, b.alui(Opcode::kShr, a, 3)), 0xFF);
  }
  b.assign(acc, a);
  b.assign(refl, b.alui(Opcode::kOr, k, 1));
  b.assign_alui(idx, Opcode::kAdd, idx, 4);
  const VReg more = b.cmpi_b(Opcode::kCmplt, idx, kSamples * 4);
  b.branch(more, body);

  const int outer_end = b.new_block();
  b.switch_to(outer_end);
  b.store(Opcode::kStw, in, kSamples * 4, acc, 2);
  b.assign_alui(outer, Opcode::kAdd, outer, -1);
  const VReg again = b.cmpi_b(Opcode::kCmpgt, outer, 0);
  b.branch(again, outer_blk);
  const int fin = b.new_block();
  b.switch_to(fin);
  b.halt();

  Program prog = cc::compile(std::move(b).take(), cfg, s.compiler, s.stats);
  prog.add_data_words(kIn, random_words(0x65E, kSamples + 1));
  return prog;
}

}  // namespace vexsim::wl
