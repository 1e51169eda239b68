// Microbenchmark A5: software cost of one merge decision, per technique.
//
// The paper's "low cost" argument is about hardware; the software analogue
// we can measure is the work per cycle the merge engine does. Cluster-level
// collision checks (CSMT/CCSI) touch one occupancy word per cluster;
// operation-level checks (SMT/COSI/OOSI) count FU classes — visibly more
// work per decision, mirroring the hardware complexity ordering.
//
// Since the fused-engine rework, selection is sink-templated, so this bench
// also serves as the unit-level before/after probe for the fusion: each
// technique is timed against the reference PacketSink (materializes
// SelectedOps) and against a counting sink with the fused engine's shape
// (no packet body, an emit that only consumes the operation). The two sinks
// must make bit-identical selection decisions — checked on every run before
// any ratio is reported.
//
// Flags: --reps N (timing repetitions, best-of), --iters N (decisions per
//        rep), --quick, --json FILE (default BENCH_micro_merge.json).
//        The sweep-engine flags (--jobs, --cache) do not apply: this bench
//        measures single-threaded wall-clock, so every run re-measures.
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "arch/thread_context.hpp"
#include "core/merge_engine.hpp"
#include "isa/config.hpp"
#include "stats/json.hpp"
#include "stats/table.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "vasm/assembler.hpp"

namespace {

using namespace vexsim;

// Keeps `v` live without a store: the optimizer cannot delete the timed
// selection work (the in-tree stand-in for benchmark::DoNotOptimize).
template <typename T>
inline void keep_alive(const T& v) {
  asm volatile("" : : "g"(v) : "memory");
}

std::shared_ptr<const Program> dense_program() {
  // One instruction using all four clusters with mixed FU classes.
  Program p = assemble(
      "c0 add r1 = r2, r3 ; c0 mpyl r4 = r5, r6 ; c0 ldw r7 = 0x200[r0] ; "
      "c1 add r1 = r2, r3 ; c1 sub r4 = r5, r6 ; "
      "c2 mpyl r1 = r2, r3 ; c2 xor r4 = r5, r6 ; "
      "c3 stw 0x200[r0] = r1 ; c3 add r2 = r3, r4\n",
      "dense");
  return std::make_shared<const Program>(std::move(p));
}

void prime(ThreadContext& ctx) {
  IssueProgress& iss = ctx.issue;
  iss.active = true;
  iss.seq = 1;
  iss.dec = &ctx.current_decoded();
  // Prime exactly as refill_slot does: straight from the decode cache.
  iss.pending_ops = iss.dec->full_masks;
  iss.pending_clusters = iss.dec->used_cluster_mask;
  iss.pending_count = iss.dec->op_count;
}

// The fused engine's sink shape: per-cluster resource accounting but no
// packet body — emit only consumes the operation. What the simulator's
// FusedSink does minus the execution itself, so the packet/counting delta
// isolates the cost of materializing SelectedOps.
struct CountingSink {
  std::array<ResourceUse, kMaxClusters> use{};
  int emitted = 0;

  [[nodiscard]] ResourceUse& used(std::size_t physical) {
    return use[physical];
  }
  void claim(std::size_t) {}
  void emit(const DecodedOp& dec, int, int) {
    ++emitted;
    keep_alive(dec.op);
  }
  void clear() {
    use.fill(ResourceUse{});
    emitted = 0;
  }
};

// Sink adapters with a uniform clear/select/selected surface for the timing
// loop.
struct PacketHolder {
  ExecPacket packet;
  int clusters = 0;
  void clear() { packet.clear(clusters); }
  void select(MergeEngine& e, ThreadContext& ctx, int rotation) {
    e.try_select(ctx, rotation, ctx.asid(), packet);
  }
  [[nodiscard]] int selected() const { return packet.op_count(); }
};

struct CountingHolder {
  CountingSink sink;
  void clear() { sink.clear(); }
  void select(MergeEngine& e, ThreadContext& ctx, int rotation) {
    e.select(ctx, rotation, sink);
  }
  [[nodiscard]] int selected() const { return sink.emitted; }
};

// Two-thread merge step (both contexts re-primed each iteration), timed for
// `iters` iterations; returns seconds.
template <typename SinkHolder>
double time_selects(MergeEngine& engine, ThreadContext& a, ThreadContext& b,
                    SinkHolder& holder, long iters) {
  const auto t0 = std::chrono::steady_clock::now();
  for (long i = 0; i < iters; ++i) {
    holder.clear();
    prime(a);
    prime(b);
    holder.select(engine, a, 0);
    holder.select(engine, b, 2);
    keep_alive(holder.selected());
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

struct TechPoint {
  std::string label;
  Technique technique;
};

struct TechResult {
  double packet_ns = 0;    // per decision, PacketSink
  double counting_ns = 0;  // per decision, CountingSink
  int ops_per_decision = 0;
};

// Both sinks must produce the same selection decisions from the same primed
// state: same per-thread result fields, same issue-progress afterstate, and
// as many packet ops as counted emits.
void check_identity(const std::string& label, MergeEngine& engine,
                    const MachineConfig& cfg, ThreadContext& a,
                    ThreadContext& b) {
  ExecPacket packet;
  packet.clear(cfg.clusters);
  prime(a);
  prime(b);
  const SelectResult pa = engine.try_select(a, 0, 0, packet);
  const SelectResult pb = engine.try_select(b, 2, 1, packet);
  const IssueProgress issue_a = a.issue, issue_b = b.issue;

  CountingSink sink;
  sink.clear();
  prime(a);
  prime(b);
  const SelectResult ca = engine.select(a, 0, sink);
  const SelectResult cb = engine.select(b, 2, sink);

  auto same = [](const SelectResult& x, const SelectResult& y) {
    return x.ops_selected == y.ops_selected &&
           x.selected_any == y.selected_any && x.last_part == y.last_part;
  };
  VEXSIM_CHECK_MSG(same(pa, ca) && same(pb, cb),
                   label << ": sink-dependent selection result");
  VEXSIM_CHECK_MSG(issue_a.pending_count == a.issue.pending_count &&
                       issue_a.pending_ops == a.issue.pending_ops &&
                       issue_a.pending_clusters == a.issue.pending_clusters &&
                       issue_b.pending_count == b.issue.pending_count &&
                       issue_b.pending_ops == b.issue.pending_ops &&
                       issue_b.pending_clusters == b.issue.pending_clusters,
                   label << ": sink-dependent issue progress");
  VEXSIM_CHECK_MSG(packet.op_count() == sink.emitted,
                   label << ": packet op count != counted emits");
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const bool quick = cli.get_bool("quick", false);
  const long iters = cli.get_int("iters", quick ? 20'000 : 200'000);
  const int reps = static_cast<int>(cli.get_int("reps", quick ? 2 : 5));
  VEXSIM_CHECK_MSG(iters >= 1, "--iters must be >= 1");
  VEXSIM_CHECK_MSG(reps >= 1, "--reps must be >= 1");

  const std::vector<TechPoint> points = {
      {"CSMT", Technique::csmt()},
      {"CCSI", Technique::ccsi(CommPolicy::kAlwaysSplit)},
      {"SMT", Technique::smt()},
      {"COSI", Technique::cosi(CommPolicy::kAlwaysSplit)},
      {"OOSI", Technique::oosi(CommPolicy::kAlwaysSplit)},
  };

  std::cout << "Merge-decision cost (" << iters << " iterations x " << reps
            << " reps, best-of, 2 threads/decision)\n\n";

  auto prog = dense_program();
  std::vector<TechResult> results;
  for (const TechPoint& p : points) {
    MachineConfig cfg = MachineConfig::paper(2, p.technique);
    cfg.validate();
    MergeEngine engine(cfg);
    ThreadContext a(0, prog), b(1, prog);

    check_identity(p.label, engine, cfg, a, b);

    TechResult r;
    {
      ExecPacket probe;
      probe.clear(cfg.clusters);
      prime(a);
      prime(b);
      engine.try_select(a, 0, 0, probe);
      engine.try_select(b, 2, 1, probe);
      r.ops_per_decision = probe.op_count();
    }

    PacketHolder packet;
    packet.clusters = cfg.clusters;
    CountingHolder counting;
    double packet_s = 1e300, counting_s = 1e300;
    for (int i = 0; i < reps; ++i) {
      packet_s = std::min(packet_s, time_selects(engine, a, b, packet, iters));
      counting_s =
          std::min(counting_s, time_selects(engine, a, b, counting, iters));
    }
    // Two decisions (one per thread) per iteration.
    r.packet_ns = packet_s / static_cast<double>(2 * iters) * 1e9;
    r.counting_ns = counting_s / static_cast<double>(2 * iters) * 1e9;
    results.push_back(r);
  }

  Table table({"technique", "ops/decision", "ns/decision packet",
               "ns/decision counting", "counting/packet"});
  Json arr = Json::array();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const TechPoint& p = points[i];
    const TechResult& r = results[i];
    table.add_row({p.label, std::to_string(r.ops_per_decision),
                   Table::fmt(r.packet_ns, 1), Table::fmt(r.counting_ns, 1),
                   Table::fmt(r.counting_ns / r.packet_ns, 2)});
    Json pj = Json::object();
    pj.set("technique", p.label)
        .set("ops_per_decision", r.ops_per_decision)
        .set("ns_per_decision_packet", r.packet_ns)
        .set("ns_per_decision_counting", r.counting_ns)
        .set("counting_over_packet", r.counting_ns / r.packet_ns);
    arr.push(std::move(pj));
  }

  // Collision-logic primitives in isolation (the CL boxes of Figure 7).
  const long prim_iters = iters * 10;
  double cluster_ns = 0, operation_ns = 0;
  {
    std::uint32_t x = 0b0101, y = 0b1010;
    bool acc = false;
    double best = 1e300;
    for (int i = 0; i < reps; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      for (long k = 0; k < prim_iters; ++k) {
        acc ^= cluster_collision(x, y);
        x = (x * 5) & 0xF;
        y = (y * 3 + 1) & 0xF;
      }
      const auto t1 = std::chrono::steady_clock::now();
      best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    }
    keep_alive(acc);
    cluster_ns = best / static_cast<double>(prim_iters) * 1e9;
  }
  {
    ClusterResourceConfig limits;
    ResourceUse ra, rb;
    ra.add(ops::alu(Opcode::kAdd, 0, 1, 2, 3));
    ra.add(ops::mpyl(0, 4, 5, 6));
    rb.add(ops::load(Opcode::kLdw, 0, 7, 8, 0));
    rb.add(ops::alu(Opcode::kSub, 0, 1, 2, 3));
    bool acc = false;
    double best = 1e300;
    for (int i = 0; i < reps; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      for (long k = 0; k < prim_iters; ++k) {
        acc ^= operation_collision(ra, rb, limits, 1);
        keep_alive(ra);
      }
      const auto t1 = std::chrono::steady_clock::now();
      best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    }
    keep_alive(acc);
    operation_ns = best / static_cast<double>(prim_iters) * 1e9;
  }

  Json doc = Json::object();
  doc.set("experiment", "micro_merge")
      .set("iters", iters)
      .set("reps", reps)
      .set("ns_cluster_collision", cluster_ns)
      .set("ns_operation_collision", operation_ns)
      .set("points", std::move(arr));
  write_json_file(cli.get("json", "BENCH_micro_merge.json"), std::move(doc));

  std::cout << table.to_text();
  std::cout << "\nPrimitives: cluster_collision " << Table::fmt(cluster_ns, 2)
            << " ns, operation_collision " << Table::fmt(operation_ns, 2)
            << " ns\n";
  std::cout << "\nSelection decisions are verified bit-identical between the "
               "packet and counting sinks before any time is reported.\n";
  return 0;
}
