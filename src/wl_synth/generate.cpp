#include "wl_synth/generate.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "cc/compiler.hpp"
#include "cc/verifier.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace vexsim::wl_synth {

namespace {

// Read-only pool the memory ops touch. The default 64 KiB (f-dial) gives
// address entropy while mostly hitting in the paper's 64 KB D-cache (memory
// intensity then dials latency exposure, not miss rate); larger footprints
// (up to the 1 MiB gap below kOutBase) make the m-dial cache-hostile.
constexpr std::uint32_t kPoolBase = 0x0060'0000;
constexpr std::uint32_t kOutBase = 0x0070'0000;
constexpr int kOutBytesPerChain = 256;

std::vector<std::uint32_t> pool_words(std::uint64_t seed,
                                      std::uint32_t pool_bytes) {
  Rng rng(seed ^ 0xA5A5'5A5A'D1CE'BEEFull);
  std::vector<std::uint32_t> words(pool_bytes / 4);
  for (auto& w : words) w = rng.next_u32();
  return words;
}

// The pool depends only on (seed, footprint), so every program generated
// from a spec shares one image, whatever its machine, ILP or compiler. The
// mutex guards the map: parallel sweep workers build distinct programs at
// once and can ask for the same pool.
std::shared_ptr<const DataImage> shared_pool(std::uint64_t seed,
                                             std::uint32_t pool_bytes) {
  static std::mutex pools_mutex;
  static std::map<std::pair<std::uint64_t, std::uint32_t>,
                  std::shared_ptr<const DataImage>>
      pools;
  const std::lock_guard<std::mutex> lock(pools_mutex);
  std::shared_ptr<const DataImage>& pool = pools[{seed, pool_bytes}];
  if (pool == nullptr) pool = word_image(pool_words(seed, pool_bytes));
  return pool;
}

}  // namespace

int chain_count(const SynthSpec& spec, const MachineConfig& cfg) {
  const int width = cfg.total_issue_width();
  // 1.5× width at the top of the dial: the 2-cycle mul/mem latencies mean a
  // single chain sustains < 1 op/cycle, so saturation needs spare chains.
  const int peak = std::max(1, static_cast<int>(std::lround(1.5 * width)));
  int chains = 1 + static_cast<int>(std::lround(spec.ilp * (peak - 1)));
  // Every chain should receive work each iteration, and the per-chain
  // accumulators (globals) must not exhaust the register files.
  chains = std::min(chains, spec.ops);
  chains = std::min(chains, cfg.clusters * (kNumGprs / 4));
  return std::max(1, chains);
}

Program generate(const SynthSpec& spec, const MachineConfig& cfg,
                 double scale, const cc::CompilerOptions& compiler,
                 cc::CompileStats* stats) {
  // A spec-level "cc" field pins this component's compiler regardless of
  // the experiment-wide options.
  const cc::CompilerOptions copt =
      spec.has_compiler ? spec.compiler : compiler;
  using cc::Builder;
  using cc::VReg;

  const int chains = chain_count(spec, cfg);
  const int n_ops = spec.ops;
  // f-dial: pool size in bytes; the mask form relies on the power-of-two
  // constraint parse_spec enforces. f64 (the default) reproduces the
  // pre-dial pool bit for bit.
  const auto pool_bytes = static_cast<std::uint32_t>(spec.footprint_kib) * 1024;
  const auto pool_mask = static_cast<std::int32_t>(pool_bytes - 4);
  Rng rng(spec.seed);

  Builder b(spec.name());

  // Loop invariants (single definition, cross-block uses are fine).
  const VReg pool = b.movi(static_cast<std::int32_t>(kPoolBase));
  const VReg out = b.movi(static_cast<std::int32_t>(kOutBase));
  std::vector<VReg> invariants;
  for (int i = 0; i < 4; ++i)
    invariants.push_back(b.movi(static_cast<std::int32_t>(rng.next_u32())));

  // Per-chain accumulators, carried across iterations.
  std::vector<VReg> acc;
  acc.reserve(static_cast<std::size_t>(chains));
  for (int k = 0; k < chains; ++k) {
    const VReg a = b.fresh_global();
    b.assign_i(a, static_cast<std::int32_t>(rng.next_u32()));
    acc.push_back(a);
  }
  // st-dial: per-chain walk pointers (pool offsets), loop-carried like the
  // accumulators. Created only under a positive stride so st=0 specs keep
  // the exact pre-dial VReg and Rng streams (and therefore their programs).
  std::vector<VReg> sptr;
  if (spec.stride > 0) {
    sptr.reserve(static_cast<std::size_t>(chains));
    for (int k = 0; k < chains; ++k) {
      const VReg p = b.fresh_global();
      // Chains start one stride apart so they stream through disjoint lines.
      b.assign_i(p, static_cast<std::int32_t>(
                        (static_cast<std::uint32_t>(k) *
                         static_cast<std::uint32_t>(spec.stride)) &
                        static_cast<std::uint32_t>(pool_mask)));
      sptr.push_back(p);
    }
  }
  const VReg outer = b.fresh_global();
  const int trips =
      std::max(1, static_cast<int>(std::lround(600.0 * scale)));
  b.assign_i(outer, trips);

  const int head = b.new_block();
  b.jump(head);
  b.switch_to(head);

  // Body: walk the chains round-robin until the op budget is consumed.
  std::vector<VReg> cur = acc;
  std::vector<VReg> pcur = sptr;
  const int branch_sites =
      static_cast<int>(std::lround(spec.branch_density * n_ops));
  const int branch_spacing =
      branch_sites > 0 ? std::max(1, n_ops / (branch_sites + 1)) : 0;
  int emitted = 0;
  int branches_done = 0;
  int step = 0;
  while (emitted < n_ops) {
    const auto k = static_cast<std::size_t>(step % chains);
    ++step;
    // Comm density: pin this step to a rotating cluster so its chain hops
    // across the machine and the compiler must insert send/recv copies.
    const int cl = rng.chance(spec.comm_density)
                       ? static_cast<int>(
                             rng.below(static_cast<std::uint32_t>(cfg.clusters)))
                       : -1;
    if (spec.parallel_fraction > 0.0 && rng.chance(spec.parallel_fraction)) {
      // Pipeline-parallel step: work seeded by the loop counter (an
      // induction value, replicated across clusters), independent of the
      // accumulator until a single fold at the end. The recurrence stays
      // one ALU op per fold while the multiply/load chain hangs off it —
      // the shape that gives modulo scheduling its II headroom. The
      // chance() guard is short-circuited so p=0 specs keep the exact
      // pre-dial Rng stream (and therefore their programs).
      const VReg seeded = b.mpyi(
          outer, static_cast<std::int32_t>(rng.below(61) * 2 + 3), cl);
      const VReg mixed =
          b.alu(Opcode::kXor, seeded,
                invariants[rng.below(
                    static_cast<std::uint32_t>(invariants.size()))],
                cl);
      VReg val = mixed;
      if (rng.chance(spec.mem_intensity)) {
        const VReg masked = b.alui(Opcode::kAnd, mixed, pool_mask, cl);
        const VReg addr = b.alu(Opcode::kAdd, pool, masked, cl);
        val = b.load(Opcode::kLdw, addr, 0, cc::kMemSpaceReadOnly, cl);
        emitted += 3;
      }
      cur[k] = b.alu(Opcode::kXor, cur[k], val, cl);
      emitted += 3;
    } else if (rng.chance(spec.mem_intensity)) {
      if (rng.chance(0.25)) {
        // Chain-private output stream: disjoint address range and mem space
        // per chain, so stores of different chains neither alias nor carry
        // ordering edges between them.
        const std::int32_t off = static_cast<std::int32_t>(
            static_cast<int>(k) * kOutBytesPerChain +
            static_cast<int>(rng.below(kOutBytesPerChain / 4)) * 4);
        b.store(Opcode::kStw, out, off, cur[k],
                1 + static_cast<int>(k), cl);
        emitted += 1;
      } else if (spec.stride > 0) {
        // Strided pool walk (st-dial): advance the chain's pointer by the
        // stride, wrap into the pool, load, fold in. The address sequence is
        // regular — consecutive visits march through the pool — so DRAM
        // bank/row locality follows the stride instead of the chase's
        // effectively random pattern.
        const VReg stepped = b.alui(Opcode::kAdd, pcur[k],
                                    static_cast<std::int32_t>(spec.stride),
                                    cl);
        const VReg wrapped = b.alui(Opcode::kAnd, stepped, pool_mask, cl);
        const VReg addr = b.alu(Opcode::kAdd, pool, wrapped, cl);
        const VReg val =
            b.load(Opcode::kLdw, addr, 0, cc::kMemSpaceReadOnly, cl);
        cur[k] = b.alu(Opcode::kXor, cur[k], val, cl);
        pcur[k] = wrapped;
        emitted += 5;
      } else {
        // Data-dependent address chase: mask the accumulator into the pool,
        // load, fold the value back in (the load sits on the chain's
        // critical path, like mcf's arc scans).
        const VReg masked = b.alui(Opcode::kAnd, cur[k], pool_mask, cl);
        const VReg addr = b.alu(Opcode::kAdd, pool, masked, cl);
        const VReg val =
            b.load(Opcode::kLdw, addr, 0, cc::kMemSpaceReadOnly, cl);
        cur[k] = b.alu(Opcode::kXor, cur[k], val, cl);
        emitted += 4;
      }
    } else if (rng.chance(0.18)) {
      cur[k] = rng.chance(0.5)
                   ? b.mpy(cur[k],
                           invariants[rng.below(static_cast<std::uint32_t>(
                               invariants.size()))],
                           cl)
                   : b.mpyi(cur[k],
                            static_cast<std::int32_t>(rng.below(61) * 2 + 3),
                            cl);
      emitted += 1;
    } else {
      static constexpr Opcode kAluOps[] = {Opcode::kAdd, Opcode::kSub,
                                           Opcode::kXor, Opcode::kOr};
      const Opcode opc = kAluOps[rng.below(4)];
      cur[k] = rng.chance(0.7)
                   ? b.alui(opc, cur[k],
                            static_cast<std::int32_t>(rng.next_u32() & 0xFFFF),
                            cl)
                   : b.alu(opc, cur[k],
                           invariants[rng.below(static_cast<std::uint32_t>(
                               invariants.size()))],
                           cl);
      emitted += 1;
    }
    // Branch density: a data-dependent branch whose taken and fall-through
    // paths are the same next block — pure (unpredictable) taken-branch
    // penalty pressure, no divergent state.
    if (branches_done < branch_sites &&
        emitted >= (branches_done + 1) * branch_spacing) {
      const VReg bit = b.alui(Opcode::kAnd, cur[k], 1);
      const VReg cond = b.cmpi_b(Opcode::kCmpeq, bit, 1);
      const int next = b.new_block();
      b.branch(cond, next);
      b.switch_to(next);
      ++branches_done;
    }
  }

  // Loop-carried updates and back edge.
  for (std::size_t k = 0; k < acc.size(); ++k)
    if (cur[k] != acc[k]) b.assign(acc[k], cur[k]);
  for (std::size_t k = 0; k < sptr.size(); ++k)
    if (pcur[k] != sptr[k]) b.assign(sptr[k], pcur[k]);
  b.assign_alui(outer, Opcode::kAdd, outer, -1);
  const VReg again = b.cmpi_b(Opcode::kCmpgt, outer, 0);
  b.branch(again, head);

  // Epilogue: reduce the accumulators and publish the result.
  const int fin = b.new_block();
  b.switch_to(fin);
  VReg sum = acc[0];
  for (std::size_t k = 1; k < acc.size(); ++k)
    sum = b.alu(Opcode::kAdd, sum, acc[k]);
  b.store(Opcode::kStw, out, 0, sum);
  b.halt();

  Program prog = cc::compile(std::move(b).take(), cfg, copt, stats);
  prog.add_data(kPoolBase, shared_pool(spec.seed, pool_bytes));
  // Belt and braces: generation happens once per (spec, cfg, scale) thanks
  // to the registry memo, so static verification is effectively free.
  cc::verify_or_throw(prog, cfg);
  return prog;
}

}  // namespace vexsim::wl_synth
