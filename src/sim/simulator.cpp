#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>

#include "sim/exec.hpp"
#include "util/check.hpp"

namespace vexsim {

namespace {
// The config, checked before any member is built from it: the merge engine,
// the memory backend and the per-slot tables are sized for kMaxClusters
// clusters and kMaxHwThreads contexts.
const MachineConfig& validated(const MachineConfig& cfg) {
  cfg.validate();
  return cfg;
}

// First cycle at which none of the thread's refill gates holds.
std::uint64_t gates_open_at(const ThreadContext& ctx) {
  return std::max({ctx.mem_block_until, ctx.next_issue_at, ctx.fetch_ready_at});
}
}  // namespace

// The engine's selection sink: records each operation in the cycle's packet
// and executes it the instant it wins selection. execute_op writes nothing
// selection reads (it touches pending writes, caches, channels and staged
// stores — never issue masks or cluster use), so executing inside the walk
// leaves every decision as a select-then-execute machine would make it.
struct Simulator::IssueSink {
  Simulator& sim;
  ThreadContext& ctx;
  std::int8_t hw_slot;

  [[nodiscard]] ResourceUse& used(std::size_t physical) {
    return sim.packet_.used[physical];
  }
  void emit(const DecodedOp& dec, int logical, int physical) {
    sim.packet_.ops.push_back(SelectedOp{
        &dec, hw_slot, static_cast<std::uint8_t>(logical),
        static_cast<std::uint8_t>(physical)});
    sim.execute_op(dec, logical, physical, ctx);
  }
};

Simulator::Simulator(const MachineConfig& cfg)
    : cfg_(validated(cfg)),
      merge_(cfg_),
      backend_(mem::make_backend(cfg_)),
      icache_ptr_(&backend_->icache()),
      dcache_ptr_(&backend_->dcache()) {
  for (const OpClass cls : {OpClass::kNop, OpClass::kAlu, OpClass::kMul,
                            OpClass::kMem, OpClass::kBranch, OpClass::kComm})
    lat_by_class_[static_cast<std::size_t>(cls)] = cfg_.lat.for_class(cls);
  lat_breg_result_ = cfg_.lat.cmp_to_branch;
  for (int s = 0; s < kMaxHwThreads; ++s)
    rotation_[static_cast<std::size_t>(s)] =
        s < cfg_.hw_threads ? cfg_.renaming_rotation(s) : 0;
  for (int c = 0; c < cfg_.clusters; ++c)
    mem_units_[static_cast<std::size_t>(c)] = cfg_.cluster_at(c).mem_units;
}

void Simulator::attach(int slot, ThreadContext* ctx) {
  VEXSIM_CHECK(slot >= 0 && slot < cfg_.hw_threads);
  VEXSIM_CHECK_MSG(slots_[static_cast<std::size_t>(slot)] == nullptr,
                   "slot " << slot << " already occupied");
  slots_[static_cast<std::size_t>(slot)] = ctx;
  if (ctx != nullptr) {
    // Validation walks the whole program, and context switches re-attach the
    // same handful of programs every timeslice — remember what passed. The
    // memo holds shared_ptrs so a remembered address can never be recycled
    // by a different (unvalidated) program.
    bool seen = false;
    for (const std::shared_ptr<const Program>& p : validated_programs_)
      if (p.get() == &ctx->program()) seen = true;
    if (!seen) {
      ctx->program().validate(cfg_.clusters);
      if (validated_programs_.size() < kMaxValidatedPrograms)
        validated_programs_.push_back(ctx->program_ptr());
    }
    // A freshly (re)attached thread re-fetches its current instruction.
    ctx->fetch_done = false;
  }
}

ThreadContext* Simulator::detach(int slot) {
  VEXSIM_CHECK(slot >= 0 && slot < cfg_.hw_threads);
  ThreadContext* ctx = slots_[static_cast<std::size_t>(slot)];
  slots_[static_cast<std::size_t>(slot)] = nullptr;
  if (ctx == nullptr) return nullptr;
  VEXSIM_CHECK_MSG(!ctx->issue.active,
                   "detach requires a drained pipeline (instruction in flight)");
  VEXSIM_CHECK(ctx->rf_buffer.empty() && ctx->store_buffer.empty());
  // In-flight NUAL writes are architecturally determined; commit them now so
  // the context can be rescheduled later (the switched-out thread's state
  // must be precise).
  ctx->pending_writes.commit_all_to(ctx->regs);
  return ctx;
}

bool Simulator::quiesced() const {
  for (int s = 0; s < cfg_.hw_threads; ++s) {
    const ThreadContext* ctx = slots_[static_cast<std::size_t>(s)];
    if (ctx != nullptr && ctx->issue.active) return false;
  }
  return true;
}

void Simulator::charge_gates(ThreadContext& ctx, std::uint64_t from,
                             std::uint64_t to) {
  // Both subtractions are guarded: a span may end below a later gate.
  const std::uint64_t dmiss_end = std::min(to, ctx.mem_block_until);
  if (dmiss_end > from) ctx.counters.dmiss_block_cycles += dmiss_end - from;
  const std::uint64_t imiss_from =
      std::max({from, ctx.mem_block_until, ctx.next_issue_at});
  const std::uint64_t imiss_end = std::min(to, ctx.fetch_ready_at);
  if (imiss_end > imiss_from)
    ctx.counters.imiss_block_cycles += imiss_end - imiss_from;
}

void Simulator::account_empty_cycles(std::uint64_t k, bool port_stalled) {
  stats_.cycles += k;
  stats_.vertical_waste_cycles += k;
  if (port_stalled)
    stats_.memport_stall_cycles += k;
  else if (drain_)
    stats_.drain_cycles += k;
}

void Simulator::refill_slot(ThreadContext* ctx) {
  // The caller hoists the common early-outs (null slot, not ready, already
  // active, drain mode) so idle/busy threads never pay the call.
  if (cycle_ < gates_open_at(*ctx)) {
    charge_gates(*ctx, cycle_, cycle_ + 1);
    return;
  }
  if (!ctx->fetch_done) {
    const std::uint32_t addr = ctx->instr_addr(ctx->pc);
    const std::uint32_t asid = static_cast<std::uint32_t>(ctx->asid());
    const bool hit = icache_ptr_->access(asid, addr);
    ctx->fetch_done = true;
    if (!hit) {
      // The miss cycle is the refill's first (ifetch_miss is > cycle_).
      ctx->fetch_ready_at = backend_->ifetch_miss(asid, addr, cycle_);
      charge_gates(*ctx, cycle_, cycle_ + 1);
      return;
    }
  }
  const DecodedInstruction& dec = ctx->current_decoded();
  IssueProgress& iss = ctx->issue;
  iss.active = true;
  iss.seq = ++ctx->seq;
  iss.started_at = cycle_;
  iss.was_split = false;
  iss.dec = &dec;
  iss.pending_count = dec.op_count;
  iss.pending_ops = dec.full_masks;
  iss.pending_clusters = dec.used_cluster_mask;
}

void Simulator::assert_no_pending_write(const ThreadContext& ctx, bool to_breg,
                                        int cluster, int idx) const {
  // Less-than-or-equal machine contract: reading a register while a write to
  // it is still in its latency window is a compiler scheduling bug. Writes of
  // the *same* instruction are exempt — same-cycle reads legally observe the
  // old value (Figure 3 swap semantics). Callers pre-filter with the
  // write-window bitmap, so this scan runs only when a write may be in
  // flight for the register.
  for (const PendingWrite& w : ctx.pending_writes) {
    if (w.to_breg == to_breg && w.cluster == cluster && w.idx == idx &&
        w.visible_at > cycle_ && w.seq != ctx.issue.seq) {
      VEXSIM_CHECK_MSG(false, "NUAL violation: read of "
                                  << (to_breg ? "b" : "r") << idx
                                  << " on cluster " << cluster
                                  << " during latency window (pc=" << ctx.pc
                                  << ")");
    }
  }
}

void Simulator::write_result(ThreadContext& ctx, const Operation& op,
                             std::uint32_t value, int latency) {
  PendingWrite w;
  w.visible_at = cycle_ + static_cast<std::uint64_t>(latency);
  w.seq = ctx.issue.seq;
  w.to_breg = op.dst_is_breg;
  w.cluster = op.cluster;
  w.idx = op.dst;
  w.value = value;
  ctx.pending_writes.push(w);
}

void Simulator::execute_op(const DecodedOp& dec, int logical_cluster,
                           int physical_cluster, ThreadContext& ctx) {
  if (ctx.fault.pending) return;  // instruction already faulted this cycle
  const Operation& op = dec.op;
  const int c = logical_cluster;

  auto read_gpr = [&](int idx) {
    if (ctx.pending_writes.maybe_pending(false, c, idx))
      assert_no_pending_write(ctx, false, c, idx);
    return ctx.regs.gpr(c, idx);
  };
  auto read_breg = [&](int idx) {
    if (ctx.pending_writes.maybe_pending(true, c, idx))
      assert_no_pending_write(ctx, true, c, idx);
    return ctx.regs.breg(c, idx);
  };

  switch (dec.cls) {
    case OpClass::kNop:
      break;
    case OpClass::kAlu:
    case OpClass::kMul: {
      const std::uint32_t a =
          dec.has(DecodedOp::kReadsSrc1) ? read_gpr(op.src1) : 0;
      const std::uint32_t b =
          dec.has(DecodedOp::kSrc2Reg)
              ? read_gpr(op.src2)
              : (dec.has(DecodedOp::kSrc2Imm)
                     ? static_cast<std::uint32_t>(op.imm)
                     : 0);
      const bool bv =
          dec.has(DecodedOp::kReadsBsrc) ? read_breg(op.bsrc) : false;
      const std::uint32_t result = eval_scalar(op.opc, a, b, bv);
      // Branch-register results obey the compare-to-branch delay (the ISA
      // contract the compiler schedules against); GPR results use the
      // functional-unit latency.
      const int latency =
          dec.has(DecodedOp::kDstBreg)
              ? lat_breg_result_
              : lat_by_class_[static_cast<std::size_t>(dec.cls)];
      write_result(ctx, op, result, latency);
      break;
    }
    case OpClass::kMem: {
      const std::uint32_t addr =
          read_gpr(op.src1) + static_cast<std::uint32_t>(op.imm);
      const int size = dec.mem_size;
      ++mem_port_use_[static_cast<std::size_t>(physical_cluster)];
      const std::uint32_t asid = static_cast<std::uint32_t>(ctx.asid());
      const bool hit = dcache_ptr_->access(asid, addr);
      if (dec.has(DecodedOp::kLoad)) {
        std::uint32_t raw = 0;
        if (!ctx.mem.load(addr, size, raw)) {
          ctx.fault = FaultInfo{true, ctx.pc, addr};
          return;
        }
        write_result(ctx, op, extend_loaded(op.opc, raw),
                     lat_by_class_[static_cast<std::size_t>(OpClass::kMem)]);
        if (!hit)
          ctx.mem_block_until =
              std::max(ctx.mem_block_until,
                       backend_->dmem_miss(asid, addr, /*is_store=*/false,
                                           cycle_));
      } else {
        const std::uint32_t value = read_gpr(op.src2);
        // Fault detection happens at issue; the actual write is staged and
        // applied after all reads so same-cycle loads see old memory.
        if (addr < MainMemory::kGuardLimit ||
            (addr & (static_cast<std::uint32_t>(size) - 1)) != 0) {
          ctx.fault = FaultInfo{true, ctx.pc, addr};
          return;
        }
        if (!hit) {
          // The fill happens (and occupies backend machinery) whether or not
          // the thread blocks on it; blocking is the write-buffer policy.
          const std::uint64_t ready =
              backend_->dmem_miss(asid, addr, /*is_store=*/true, cycle_);
          if (cfg_.stall_on_store_miss)
            ctx.mem_block_until = std::max(ctx.mem_block_until, ready);
        }
        staged_.push_back(StagedStore{&ctx, op.cluster,
                                      static_cast<std::uint8_t>(size), addr,
                                      value});
      }
      break;
    }
    case OpClass::kBranch: {
      if (op.opc == Opcode::kHalt) {
        ctx.halt_at_completion = true;
        break;
      }
      const bool bv =
          dec.has(DecodedOp::kReadsBsrc) ? read_breg(op.bsrc) : false;
      if (branch_taken(op.opc, bv)) ctx.redirect_target = op.imm;
      break;
    }
    case OpClass::kComm: {
      ctx.channels_dirty = true;
      ChannelState& ch = ctx.channels[op.chan];
      if (op.opc == Opcode::kSend) {
        const std::uint32_t v = read_gpr(op.src1);
        if (ch.recv_waiting) {
          // Recv issued first (Figure 12d): the buffered destination
          // register is written directly when the data arrives.
          Operation dst_op;
          dst_op.cluster = ch.recv_cluster;
          dst_op.dst = ch.recv_dst;
          write_result(ctx, dst_op, v, cfg_.lat.comm);
          ch = ChannelState{};
        } else {
          ch.has_value = true;
          ch.value = v;
        }
      } else {  // recv
        if (ch.has_value) {
          write_result(ctx, op, ch.value, cfg_.lat.comm);
          ch = ChannelState{};
        } else {
          ch.recv_waiting = true;
          ch.recv_cluster = op.cluster;
          ch.recv_dst = op.dst;
        }
      }
      break;
    }
  }
}

void Simulator::apply_staged_stores() {
  for (const StagedStore& st : staged_) {
    if (st.ctx->fault.pending) continue;
    if (st.ctx->issue.pending_count > 0) {
      // Not the last part: the store drains through the split delay buffer
      // at instruction completion. The pending count is cycle-final here:
      // the whole merge walk has run.
      st.ctx->store_buffer.push_back(
          BufferedStore{st.cluster, st.addr, st.size, st.value});
    } else {
      const bool ok = st.ctx->mem.store(st.addr, st.size, st.value);
      VEXSIM_CHECK(ok);  // faults were detected at issue
    }
  }
}

void Simulator::rollback_fault(ThreadContext& ctx) {
  // Split-issued parts never touched the architectural state: discarding
  // the delay buffers and the faulting instruction's in-flight writes
  // restores the boundary before the instruction (Section V-B).
  ctx.rf_buffer.clear();
  ctx.store_buffer.clear();
  // Earlier instructions' in-flight writes are architecturally committed;
  // the faulting instruction's own writes are discarded.
  ctx.pending_writes.commit_all_to(ctx.regs, ctx.issue.seq);
  if (ctx.channels_dirty) {
    ctx.channels.fill(ChannelState{});
    ctx.channels_dirty = false;
  }
  ctx.issue = IssueProgress{};
  ctx.redirect_target = -1;
  ctx.halt_at_completion = false;
  ctx.fetch_done = false;
  ctx.state = RunState::kFaulted;
  ++stats_.faults;
  ++thread_exit_events_;
}

void Simulator::complete_instruction(int slot, ThreadContext& ctx) {
  // Drain the delay buffers (last-part commit, Figure 8/9). Only a
  // split-issued instruction can have filled them: rf_buffer entries are
  // diverted commits of a still-partially-issued producer, store_buffer
  // entries are stores staged with parts still pending — both imply issue
  // over more than one cycle.
  if (ctx.issue.was_split) {
    for (const BufferedRegWrite& w : ctx.rf_buffer) {
      if (w.to_breg)
        ctx.regs.set_breg(w.cluster, w.idx, w.value != 0);
      else
        ctx.regs.set_gpr(w.cluster, w.idx, w.value);
    }
    ctx.rf_buffer.clear();
    const int rotation = rotation_[static_cast<std::size_t>(slot)];
    for (const BufferedStore& s : ctx.store_buffer) {
      // Buffered stores contend for the cluster's memory ports when they
      // finally commit (Figure 11).
      ++mem_port_use_[merge_.physical_cluster(s.cluster, rotation)];
      const bool ok = ctx.mem.store(s.addr, s.size, s.value);
      VEXSIM_CHECK(ok);  // faults were detected at issue
    }
    ctx.store_buffer.clear();
  }
  if (ctx.channels_dirty) {
    ctx.channels.fill(ChannelState{});
    ctx.channels_dirty = false;
  }

  ++ctx.counters.instructions;
  ++ctx.total_instructions;
  ctx.counters.ops += static_cast<std::uint64_t>(ctx.issue.dec->op_count);
  ++stats_.instructions_retired;
  if (ctx.issue.was_split) {
    ++stats_.split_instructions;
    ++ctx.counters.split_instructions;
  }

  std::uint32_t next = ctx.pc + 1;
  if (ctx.redirect_target >= 0) {
    next = static_cast<std::uint32_t>(ctx.redirect_target);
    ctx.next_issue_at =
        cycle_ + 1 + static_cast<std::uint64_t>(cfg_.lat.taken_branch_penalty);
    ++stats_.taken_branches;
    ++ctx.counters.taken_branches;
  }
  ctx.redirect_target = -1;
  ctx.issue.active = false;
  ctx.fetch_done = false;

  if (ctx.halt_at_completion || next >= ctx.code_size()) {
    // The final instruction's in-flight writes are architecturally
    // determined; commit them so the halted state is precise.
    ctx.pending_writes.commit_all_to(ctx.regs);
    ctx.state = RunState::kHalted;
    ++thread_exit_events_;
    return;
  }
  ctx.pc = next;
}

int Simulator::step() {
  ++cycle_;

  // Global structural stall: buffered stores draining through too few
  // memory ports ("the pipeline is stalled till all the memory operations
  // have been performed", Section V-D). A stalled cycle charges no thread and
  // does not rotate the priority.
  if (cycle_ < stall_until_) {
    packet_.clear();  // nothing issues this cycle
    account_empty_cycles(1, /*port_stalled=*/true);
    return 0;
  }

  const int n = cfg_.hw_threads;
  // Commit and refill are per-thread independent (a thread's refill never
  // observes another thread's commits), so one pass serves both. The
  // watermark test keeps the no-writes-due case call-free, the
  // ready/not-active guard keeps busy threads out of refill_slot.
  for (int s = 0; s < n; ++s) {
    ThreadContext* ctx = slots_[static_cast<std::size_t>(s)];
    if (ctx == nullptr) continue;
    if (ctx->pending_writes.earliest_visible_at() <= cycle_)
      commit_pending_writes(*ctx);
    if (!drain_ && ctx->state == RunState::kReady && !ctx->issue.active) {
      refill_slot(ctx);
      // An all-nop instruction arms with nothing pending; retire it here —
      // the completion walk below visits only threads that issued ops.
      if (ctx->issue.active && ctx->issue.pending_count == 0)
        complete_instruction(s, *ctx);
    }
  }

  // Merge and execute: rotating thread priority (Section VI-A).
  packet_.clear();
  mem_port_use_.fill(0);
  staged_.clear();
  std::uint32_t thread_mask = 0;
  for (int k = 0; k < n; ++k) {
    int s = priority_base_ + k;
    if (s >= n) s -= n;
    ThreadContext* ctx = slots_[static_cast<std::size_t>(s)];
    if (ctx == nullptr || ctx->state != RunState::kReady) continue;
    IssueSink sink{*this, *ctx, static_cast<std::int8_t>(s)};
    if (merge_.select(*ctx, rotation_[static_cast<std::size_t>(s)], sink)
            .selected_any)
      thread_mask |= 1u << static_cast<unsigned>(s);
  }
  priority_base_ = priority_base_ + 1 >= n ? 0 : priority_base_ + 1;
  const int ops = packet_.op_count();
  // An empty cycle staged no store, completed nothing and used no port.
  if (ops == 0) {
    account_empty_cycles(1, /*port_stalled=*/false);
    return 0;
  }

  if (!staged_.empty()) apply_staged_stores();

  // Complete / fault. Only a thread that issued operations this cycle can
  // reach pending_count == 0 (completion ran last cycle otherwise) or have a
  // fault pending (faults are raised inside execute_op), so the walk covers
  // exactly the set bits of thread_mask.
  for (std::uint32_t tm = thread_mask; tm != 0; tm &= tm - 1) {
    const int s = std::countr_zero(tm);
    ThreadContext* ctx = slots_[static_cast<std::size_t>(s)];
    if (ctx->fault.pending) {
      rollback_fault(*ctx);
      continue;
    }
    if (ctx->issue.active && ctx->issue.pending_count == 0)
      complete_instruction(s, *ctx);
  }

  // Memory-port pressure beyond the per-cluster port count stalls issue for
  // the excess cycles.
  int excess = 0;
  for (int c = 0; c < cfg_.clusters; ++c)
    excess += std::max(0, mem_port_use_[static_cast<std::size_t>(c)] -
                              mem_units_[static_cast<std::size_t>(c)]);
  if (excess > 0)
    stall_until_ = cycle_ + 1 + static_cast<std::uint64_t>(excess);

  ++stats_.cycles;
  stats_.ops_issued += static_cast<std::uint64_t>(ops);
  if ((thread_mask & (thread_mask - 1)) != 0) ++stats_.multi_thread_cycles;
  return ops;
}

std::uint64_t Simulator::fast_forward(std::uint64_t limit) {
  if (!fast_forward_on_) return 0;
  std::uint64_t skipped = 0;
  // At most two spans of empty cycles, neither past `limit` (the caller's
  // next decision point): the rest of a memory-port stall, then a span in
  // which no context can act.
  for (;;) {
    const std::uint64_t next = cycle_ + 1;
    if (limit <= next) return skipped;
    const bool stalled = next < stall_until_;
    std::uint64_t end = stall_until_;
    if (!stalled) {
      // The horizon: a thread in flight merges its parts next cycle, an idle
      // one starts an instruction once its gates open (never under drain),
      // and the clock observes the backend's next in-flight completion
      // (hierarchy MSHR fills; the fixed backend reports kNoEvent).
      end = ~0ull;
      for (int s = 0; s < cfg_.hw_threads; ++s) {
        const ThreadContext* ctx = slots_[static_cast<std::size_t>(s)];
        if (ctx == nullptr || ctx->state != RunState::kReady) continue;
        if (ctx->issue.active) return skipped;
        if (!drain_) end = std::min(end, gates_open_at(*ctx));
      }
      end = std::min(end, backend_->next_event_after(cycle_));
    }
    end = std::min(end, limit);
    if (end <= next) return skipped;
    const std::uint64_t k = end - next;
    account_empty_cycles(k, stalled);
    cycle_ += k;
    skipped += k;
    if (stalled) continue;  // charges no thread, rotates no priority
    for (int s = 0; s < cfg_.hw_threads; ++s) {
      ThreadContext* ctx = slots_[static_cast<std::size_t>(s)];
      if (ctx != nullptr && ctx->state == RunState::kReady && !drain_)
        charge_gates(*ctx, next, end);
    }
    priority_base_ = static_cast<int>(
        (priority_base_ + k) % static_cast<std::uint64_t>(cfg_.hw_threads));
    return skipped;
  }
}

bool Simulator::run_to_halt(std::uint64_t max_cycles) {
  const std::uint64_t limit = cycle_ + max_cycles;
  int last_ops = 0;
  while (cycle_ < limit) {
    bool any_live = false;
    for (int s = 0; s < cfg_.hw_threads; ++s) {
      const ThreadContext* ctx = slots_[static_cast<std::size_t>(s)];
      if (ctx != nullptr && ctx->state == RunState::kReady) any_live = true;
    }
    if (!any_live) return true;
    // A cycle that issued something almost always leaves work in flight;
    // probing the fast path is only worthwhile after an empty cycle.
    if (last_ops == 0) fast_forward(limit);
    last_ops = step();
  }
  return false;
}

}  // namespace vexsim
