// Microbenchmark A5: software cost of one merge decision, per technique.
//
// The paper's "low cost" argument is about hardware; the software analogue
// we can measure is the work per cycle the merge engine does. Cluster-level
// collision checks (CSMT/CCSI) touch one occupancy word per cluster;
// operation-level checks (SMT/COSI/OOSI) count FU classes — visibly more
// work per decision, mirroring the hardware complexity ordering.
//
// Selection is sink-templated, so the decisions are timed alone: the sink
// here keeps the per-cluster resource accounting the engine decides by and
// only counts what it emits — the simulator's sink minus recording and
// executing each operation.
//
// Flags: --reps N (timing repetitions, best-of), --iters N (decisions per
//        rep), --quick, --json FILE (default BENCH_micro_merge.json).
//        Any other flag is an error, the sweep-engine flags (--jobs,
//        --cache) included: this bench measures single-threaded wall-clock,
//        so every run re-measures.
#include <chrono>
#include <climits>
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

// Per-cluster resource accounting, and an emit that only consumes the
// operation.
struct CountingSink {
  std::array<ResourceUse, kMaxClusters> use{};
  int emitted = 0;

  [[nodiscard]] ResourceUse& used(std::size_t physical) {
    return use[physical];
  }
  void emit(const DecodedOp& dec, int, int) {
    ++emitted;
    keep_alive(dec.op);
  }
  void clear() {
    use.fill(ResourceUse{});
    emitted = 0;
  }
};

// Two-thread merge step (both contexts re-primed each iteration), timed for
// `iters` iterations; returns seconds.
double time_selects(MergeEngine& engine, ThreadContext& a, ThreadContext& b,
                    CountingSink& sink, long iters) {
  const auto t0 = std::chrono::steady_clock::now();
  for (long i = 0; i < iters; ++i) {
    sink.clear();
    prime(a);
    prime(b);
    engine.select(a, 0, sink);
    engine.select(b, 2, sink);
    keep_alive(sink.emitted);
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

struct TechPoint {
  std::string label;
  Technique technique;
};

struct TechResult {
  double ns = 0;  // per decision
  int ops_per_decision = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const bool quick = cli.get_bool("quick", false);
  const long iters = cli.get_int("iters", quick ? 20'000 : 200'000);
  const int reps = cli.get_int_in("reps", quick ? 2 : 5, 1, INT_MAX);
  VEXSIM_CHECK_MSG(iters >= 1, "--iters must be >= 1");
  const std::string json_path = cli.get("json", "BENCH_micro_merge.json");
  cli.reject_unknown();

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

    CountingSink sink;
    TechResult r;
    sink.clear();
    prime(a);
    prime(b);
    engine.select(a, 0, sink);
    engine.select(b, 2, sink);
    r.ops_per_decision = sink.emitted;

    double best = 1e300;
    for (int i = 0; i < reps; ++i)
      best = std::min(best, time_selects(engine, a, b, sink, iters));
    // Two decisions (one per thread) per iteration.
    r.ns = best / static_cast<double>(2 * iters) * 1e9;
    results.push_back(r);
  }

  Table table({"technique", "ops/decision", "ns/decision"});
  Json arr = Json::array();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const TechPoint& p = points[i];
    const TechResult& r = results[i];
    table.add_row({p.label, std::to_string(r.ops_per_decision),
                   Table::fmt(r.ns, 1)});
    Json pj = Json::object();
    pj.set("technique", p.label)
        .set("ops_per_decision", r.ops_per_decision)
        .set("ns_per_decision_counting", r.ns);
    arr.push(std::move(pj));
  }

  Json doc = Json::object();
  doc.set("experiment", "micro_merge")
      .set("iters", iters)
      .set("reps", reps)
      .set("points", std::move(arr));
  write_json_file(json_path, std::move(doc));

  std::cout << table.to_text();
  return 0;
}
