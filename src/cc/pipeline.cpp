#include "cc/pipeline.hpp"

#include <sstream>
#include <utility>
#include <vector>

#include "cc/lint.hpp"
#include "cc/verifier.hpp"
#include "util/check.hpp"

namespace vexsim::cc {

namespace {

Operation lower_op(const LOp& op, const Allocation& alloc,
                   const std::string& fn_name) {
  Operation out;
  out.opc = op.opc;
  out.cluster = static_cast<std::uint8_t>(op.cluster);
  out.imm = op.imm;
  out.src2_is_imm = op.src2_is_imm;
  auto gpr = [&alloc, &fn_name](VReg v) {
    const int r = alloc.gpr_of[static_cast<std::size_t>(v)];
    VEXSIM_CHECK_MSG(r >= 0, fn_name << ": unallocated gpr vreg " << v);
    return static_cast<std::uint8_t>(r);
  };
  auto breg = [&alloc, &fn_name](VReg v) {
    const int r = alloc.breg_of[static_cast<std::size_t>(v)];
    VEXSIM_CHECK_MSG(r >= 0, fn_name << ": unallocated breg vreg " << v);
    return static_cast<std::uint8_t>(r);
  };
  if (has_dst(op.opc)) {
    if (op.dst_is_breg) {
      out.dst = breg(op.dst);
      out.dst_is_breg = true;
    } else {
      out.dst = gpr(op.dst);
    }
  }
  if (reads_src1(op.opc)) out.src1 = gpr(op.src1);
  if (reads_src2(op.opc) && !op.src2_is_imm) out.src2 = gpr(op.src2);
  if (op.opc == Opcode::kSlct || op.opc == Opcode::kSlctf)
    out.bsrc = breg(op.bsrc);
  return out;
}

class IrVerifyPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override { return "ir-verify"; }
  void run(PassContext& ctx) const override { ctx.fn.validate(); }
};

class ClusterAssignPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "cluster-assign";
  }
  void run(PassContext& ctx) const override {
    ctx.lfn = assign_clusters(ctx.fn, ctx.cfg, ctx.opt);
    ctx.stats.copies_inserted = ctx.lfn.copies_inserted;
    ctx.stats.cmps_cloned = ctx.lfn.cmps_cloned;
  }
};

class ModuloSchedPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "modulo-sched";
  }
  void run(PassContext& ctx) const override {
    ctx.swp = modulo_schedule_loops(ctx.lfn, ctx.cfg, ctx.opt);
    ctx.stats.swp_candidates = ctx.swp.candidates;
    ctx.stats.swp_loops = static_cast<int>(ctx.swp.loops.size());
    ctx.stats.swp_fallbacks = ctx.swp.fallbacks;
    // Guard blocks may add inter-cluster copies.
    ctx.stats.copies_inserted = ctx.lfn.copies_inserted;
  }
};

class ListSchedPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override { return "list-sched"; }
  void run(PassContext& ctx) const override {
    ctx.sched = schedule(ctx.lfn, ctx.cfg, ctx.swp.pinned);
  }
};

class RegAllocPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override { return "regalloc"; }
  void run(PassContext& ctx) const override {
    ctx.alloc = allocate(ctx.lfn, ctx.sched, ctx.cfg);
    ctx.stats.max_gpr_pressure = ctx.alloc.max_gpr_pressure;
  }
};

class EmitPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override { return "emit"; }

  void run(PassContext& ctx) const override {
    const LFunction& lfn = ctx.lfn;
    const FunctionSchedule& fsched = ctx.sched;
    const Allocation& alloc = ctx.alloc;

    Program prog;
    prog.name = lfn.name;
    // The builder form; finalize() packs it into the program's tables.
    std::vector<VliwInstruction> code;

    // Block start indices for branch patching.
    std::vector<std::uint32_t> block_start(lfn.blocks.size(), 0);
    std::uint32_t index = 0;
    for (std::size_t b = 0; b < lfn.blocks.size(); ++b) {
      block_start[b] = index;
      index += static_cast<std::uint32_t>(fsched.blocks[b].length);
    }
    code.resize(index);

    struct Patch {
      std::size_t instr;
      int cluster;
      std::size_t op_index;
      int target_block;
    };
    std::vector<Patch> patches;

    for (std::size_t b = 0; b < lfn.blocks.size(); ++b) {
      const LBlock& block = lfn.blocks[b];
      const BlockSchedule& bs = fsched.blocks[b];
      VliwInstruction* insns = code.data() + block_start[b];

      for (std::size_t i = 0; i < block.body.size(); ++i) {
        const LOp& op = block.body[i];
        const auto cycle = static_cast<std::size_t>(bs.cycle_of[i]);
        if (op.is_copy) {
          const int chan = bs.chan_of[i];
          VEXSIM_CHECK(chan >= 0 && chan < kNumChannels);
          insns[cycle].add(ops::send(
              op.cluster, alloc.gpr_of[static_cast<std::size_t>(op.src1)],
              chan));
          insns[cycle].add(ops::recv(
              op.copy_dst_cluster,
              alloc.gpr_of[static_cast<std::size_t>(op.dst)], chan));
        } else {
          insns[cycle].add(lower_op(op, alloc, lfn.name));
        }
      }

      if (bs.term_cycle >= 0) {
        const auto tc = static_cast<std::size_t>(bs.term_cycle);
        switch (block.term) {
          case Terminator::kBranch: {
            const int breg =
                alloc.breg_of[static_cast<std::size_t>(block.cond)];
            VEXSIM_CHECK(breg >= 0);
            Operation br = block.branch_if_false ? ops::brf(0, breg, 0)
                                                 : ops::br(0, breg, 0);
            insns[tc].add(br);
            patches.push_back(Patch{block_start[b] + tc, 0,
                                    insns[tc].bundle(0).size() - 1,
                                    block.target});
            break;
          }
          case Terminator::kGoto: {
            insns[tc].add(ops::jump(0, 0));
            patches.push_back(Patch{block_start[b] + tc, 0,
                                    insns[tc].bundle(0).size() - 1,
                                    block.target});
            break;
          }
          case Terminator::kHalt:
            insns[tc].add(ops::halt(0));
            break;
          case Terminator::kFallthrough:
            break;
        }
      }

      prog.labels[block_start[b]] = lfn.name + "_b" + std::to_string(b);
    }

    for (const Patch& p : patches) {
      Bundle& bundle =
          code[p.instr].bundles[static_cast<std::size_t>(p.cluster)];
      bundle[p.op_index].imm = static_cast<std::int32_t>(
          block_start[static_cast<std::size_t>(p.target_block)]);
    }

    // Software-pipeline metadata: instruction spans of each
    // prologue/kernel/epilogue region, for the verifier and the decode
    // tables.
    for (const SwpLoop& loop : ctx.swp.loops) {
      SoftwarePipelinedLoop info;
      info.prologue_start = block_start[loop.prologue_block];
      info.kernel_start = block_start[loop.kernel_block];
      info.epilogue_end =
          block_start[loop.epilogue_block] +
          static_cast<std::uint32_t>(
              fsched.blocks[loop.epilogue_block].length);
      info.ii = static_cast<std::uint16_t>(loop.ii);
      info.stages = static_cast<std::uint16_t>(loop.stages);
      prog.kernels.push_back(info);
    }

    prog.finalize(std::move(code));
    prog.validate(ctx.cfg.clusters);

    ctx.stats.instructions = static_cast<int>(prog.size());
    ctx.stats.operations = static_cast<int>(prog.decoded->op_count());
    ctx.stats.empty_instructions = 0;
    for (std::size_t pc = 0; pc < prog.size(); ++pc)
      if (prog.insn(pc).empty()) ++ctx.stats.empty_instructions;
    ctx.prog = std::move(prog);
  }
};

class ProgramVerifyPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "program-verify";
  }
  void run(PassContext& ctx) const override {
    verify_or_throw(ctx.prog, ctx.cfg);
  }
};

}  // namespace

std::unique_ptr<Pass> make_ir_verify_pass() {
  return std::make_unique<IrVerifyPass>();
}
std::unique_ptr<Pass> make_cluster_assign_pass() {
  return std::make_unique<ClusterAssignPass>();
}
std::unique_ptr<Pass> make_modulo_sched_pass() {
  return std::make_unique<ModuloSchedPass>();
}
std::unique_ptr<Pass> make_list_sched_pass() {
  return std::make_unique<ListSchedPass>();
}
std::unique_ptr<Pass> make_regalloc_pass() {
  return std::make_unique<RegAllocPass>();
}
std::unique_ptr<Pass> make_emit_pass() { return std::make_unique<EmitPass>(); }
std::unique_ptr<Pass> make_program_verify_pass() {
  return std::make_unique<ProgramVerifyPass>();
}

Pipeline& Pipeline::add(std::unique_ptr<Pass> pass) {
  VEXSIM_CHECK_MSG(pass != nullptr, "null compiler pass");
  passes_.push_back(std::move(pass));
  return *this;
}

std::vector<std::string> Pipeline::pass_names() const {
  std::vector<std::string> names;
  names.reserve(passes_.size());
  for (const auto& pass : passes_) names.emplace_back(pass->name());
  return names;
}

namespace {

// Between-pass invariant checking (CompilerOptions::verify_each_pass).
// Checks whichever artifact the pipeline has produced so far — the lowered
// mid-level IR after cluster assignment, the finalized program after emit —
// and rethrows any violation attributed to the pass that just ran, so a
// broken transform is caught at the pass boundary that introduced the
// damage instead of at program-verify (or worse, in the simulator).
void check_pass_invariants(PassContext& ctx, std::string_view pass) {
  try {
    if (ctx.prog.size() != 0) {
      verify_or_throw(ctx.prog, ctx.cfg);
      lint_or_throw(ctx.prog, ctx.cfg);
    } else if (!ctx.lfn.blocks.empty()) {
      const std::vector<LintFinding> findings = lint_lfunction(ctx.lfn,
                                                               ctx.cfg);
      if (!findings.empty()) {
        std::ostringstream os;
        os << ctx.lfn.name << ": " << findings.size()
           << " IR lint finding(s):";
        for (const LintFinding& f : findings)
          os << "\n  [" << f.instr << "] " << f.check << ": " << f.what;
        throw CheckError(os.str());
      }
    }
  } catch (const CheckError& e) {
    VEXSIM_CHECK_MSG(false, "invariant violated after pass '" << pass
                            << "': " << e.what());
  }
}

}  // namespace

void Pipeline::run_passes(PassContext& ctx) const {
  for (const auto& pass : passes_) {
    pass->run(ctx);
    if (ctx.opt.verify_each_pass) check_pass_invariants(ctx, pass->name());
  }
}

Program Pipeline::run(IrFunction fn, const MachineConfig& cfg,
                      const CompilerOptions& opt, CompileStats* stats) const {
  PassContext ctx(cfg, opt, std::move(fn));
  run_passes(ctx);
  if (stats != nullptr) *stats = ctx.stats;
  return std::move(ctx.prog);
}

Pipeline Pipeline::standard(const CompilerOptions& opt) {
  Pipeline p;
  p.add(make_ir_verify_pass());
  p.add(make_cluster_assign_pass());
  if (opt.modulo_schedule) p.add(make_modulo_sched_pass());
  p.add(make_list_sched_pass());
  p.add(make_regalloc_pass());
  p.add(make_emit_pass());
  p.add(make_program_verify_pass());
  return p;
}

}  // namespace vexsim::cc
