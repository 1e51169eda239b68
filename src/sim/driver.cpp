#include "sim/driver.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace vexsim {

MultiprogramDriver::MultiprogramDriver(
    const MachineConfig& cfg,
    std::vector<std::shared_ptr<const Program>> programs, DriverParams params)
    : cfg_(cfg), params_(params), sim_(cfg), rng_(params.seed) {
  VEXSIM_CHECK_MSG(!programs.empty(), "workload needs at least one program");
  sim_.set_fast_forward(params_.fast_forward);
  instances_.reserve(programs.size());
  for (std::size_t i = 0; i < programs.size(); ++i)
    instances_.push_back(std::make_unique<ThreadContext>(
        static_cast<int>(i), std::move(programs[i])));
  running_.assign(static_cast<std::size_t>(cfg_.hw_threads), -1);
}

void MultiprogramDriver::schedule_initial() {
  // Deterministic initial placement: instance i on slot i (mod wraparound
  // handled by the first context switch).
  int slot = 0;
  for (std::size_t i = 0; i < instances_.size() && slot < cfg_.hw_threads;
       ++i) {
    if (instances_[i]->state != RunState::kReady) continue;
    sim_.attach(slot, instances_[i].get());
    running_[static_cast<std::size_t>(slot)] = static_cast<int>(i);
    ++slot;
  }
}

bool MultiprogramDriver::budget_reached() const {
  // Only an instance in a slot can retire, so only those can cross.
  for (const int idx : running_)
    if (idx >= 0 && instances_[static_cast<std::size_t>(idx)]
                            ->total_instructions >= params_.budget)
      return true;
  return false;
}

void MultiprogramDriver::context_switch() {
  // Detach everything.
  for (int s = 0; s < cfg_.hw_threads; ++s) {
    if (running_[static_cast<std::size_t>(s)] >= 0) sim_.detach(s);
    running_[static_cast<std::size_t>(s)] = -1;
  }
  // Replacement threads are picked at random from the workload (Sec. VI-A).
  std::vector<std::size_t> order(instances_.size());
  std::iota(order.begin(), order.end(), 0u);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng_.below(static_cast<std::uint32_t>(i))]);
  int slot = 0;
  for (const std::size_t idx : order) {
    if (slot >= cfg_.hw_threads) break;
    ThreadContext& inst = *instances_[idx];
    if (inst.state == RunState::kFaulted) continue;
    if (inst.state == RunState::kHalted) {
      if (!params_.respawn) continue;
      inst.respawn();
    }
    sim_.attach(slot, &inst);
    running_[static_cast<std::size_t>(slot)] = static_cast<int>(idx);
    ++slot;
  }
}

RunResult MultiprogramDriver::run(std::optional<Deadline> deadline) {
  schedule_initial();
  std::uint64_t next_switch = params_.timeslice;
  bool switch_pending = false;

  int last_ops = 0;
  // The loop runs up to `bound`: max_cycles, or under a deadline the next
  // clock read, which starts at cycle 0 (a compile that overran fails at
  // once). Without a deadline a cycle pays one compare, as against max_cycles.
  std::uint64_t bound = 0;
  for (;;) {
    if (sim_.cycle() >= bound) {
      if (sim_.cycle() >= params_.max_cycles) break;
      bound = params_.max_cycles;
      if (deadline) {
        if (std::chrono::steady_clock::now() >= *deadline)
          throw DeadlineExceeded();
        bound = std::min(bound, sim_.cycle() + kDeadlinePollCycles);
      }
    }
    // Idle-cycle batching must never jump the clock over a driver decision
    // point: the next timeslice expiry (drain start) or the cycle budget.
    // Probing is only worthwhile after an empty cycle — a cycle that issued
    // something almost always leaves work in flight.
    if (last_ops == 0) {
      std::uint64_t ff_limit = params_.max_cycles;
      if (!switch_pending && instances_.size() > 1)
        ff_limit = std::min(ff_limit, next_switch);
      sim_.fast_forward(ff_limit);
    }
    const std::uint64_t retired_before = sim_.stats().instructions_retired;
    const std::uint64_t exits_before = sim_.thread_exit_events();
    last_ops = sim_.step();
    // The budget can only be crossed by a retirement, and the break must
    // happen on exactly that cycle (the cycle counts in RunStats depend on
    // it). Check against the slots as they were during the step: the exit
    // handling below may detach the instance that halted on the very
    // instruction that crossed the budget and pull another into its slot.
    const bool budget_crossed =
        sim_.stats().instructions_retired != retired_before &&
        budget_reached();

    // Instance states only move when a thread halts or faults; the
    // respawn/refill scan and the all-done check are no-ops otherwise (most
    // retiring cycles), so they are gated on the simulator's exit-event
    // counter rather than rescanning every instance state.
    if (sim_.thread_exit_events() != exits_before) {
      // Respawn benchmarks that ran to completion within their slice.
      for (int s = 0; s < cfg_.hw_threads; ++s) {
        const int idx = running_[static_cast<std::size_t>(s)];
        if (idx < 0) continue;
        ThreadContext& inst = *instances_[static_cast<std::size_t>(idx)];
        if (inst.state == RunState::kHalted && params_.respawn &&
            inst.total_instructions < params_.budget) {
          inst.respawn();
        } else if (inst.state != RunState::kReady) {
          // Finished (no respawn) or faulted: free the slot and pull in the
          // next idle instance, if any.
          sim_.detach(s);
          running_[static_cast<std::size_t>(s)] = -1;
          for (std::size_t j = 0; j < instances_.size(); ++j) {
            const bool already_running =
                std::find(running_.begin(), running_.end(),
                          static_cast<int>(j)) != running_.end();
            if (already_running ||
                instances_[j]->state != RunState::kReady)
              continue;
            sim_.attach(s, instances_[j].get());
            running_[static_cast<std::size_t>(s)] = static_cast<int>(j);
            break;
          }
        }
      }

      // All instances done (run-to-completion mode)?
      if (std::all_of(instances_.begin(), instances_.end(), [](const auto& t) {
            return t->state != RunState::kReady;
          }))
        break;
    }

    if (budget_crossed) break;

    // Timeslice handling: drain, then switch.
    if (!switch_pending && sim_.cycle() >= next_switch &&
        instances_.size() > 1) {
      switch_pending = true;
      sim_.set_drain(true);
    }
    if (switch_pending && sim_.quiesced()) {
      context_switch();
      sim_.set_drain(false);
      switch_pending = false;
      next_switch = sim_.cycle() + params_.timeslice;
    }
  }

  RunResult result;
  result.sim = sim_.stats();
  result.icache = sim_.icache().stats();
  result.dcache = sim_.dcache().stats();
  result.memory = sim_.memory_backend().memory_stats();
  result.merge = sim_.merge_engine().stats();
  result.issue_width = cfg_.total_issue_width();
  for (const auto& inst : instances_) {
    InstanceResult ir;
    ir.name = inst->program().name;
    ir.instructions = inst->total_instructions;
    ir.respawns = inst->respawns;
    ir.arch_fingerprint = inst->arch_fingerprint(cfg_.clusters);
    ir.faulted = inst->state == RunState::kFaulted;
    ir.counters = inst->counters;
    result.instances.push_back(std::move(ir));
  }
  return result;
}

}  // namespace vexsim
