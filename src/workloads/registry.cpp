#include "workloads/registry.hpp"

#include <future>
#include <map>
#include <mutex>
#include <sstream>

#include "isa/config_params.hpp"
#include "util/check.hpp"
#include "wl_synth/generate.hpp"
#include "wl_synth/spec.hpp"

namespace vexsim::wl {

const std::vector<BenchmarkInfo>& benchmark_registry() {
  static const std::vector<BenchmarkInfo> registry = {
      {"mcf", IlpClass::kLow, 0.96, 1.34, "Minimum Cost Flow", &make_mcf},
      {"bzip2", IlpClass::kLow, 0.81, 0.83, "Bzip2 Compression", &make_bzip2},
      {"blowfish", IlpClass::kLow, 1.11, 1.47, "Encryption", &make_blowfish},
      {"gsmencode", IlpClass::kLow, 1.07, 1.07, "GSM Encoder",
       &make_gsmencode},
      {"g721encode", IlpClass::kMedium, 1.75, 1.76, "G721 Encoder",
       &make_g721encode},
      {"g721decode", IlpClass::kMedium, 1.75, 1.76, "G721 Decoder",
       &make_g721decode},
      {"cjpeg", IlpClass::kMedium, 1.12, 1.66, "Jpeg Encoder", &make_cjpeg},
      {"djpeg", IlpClass::kMedium, 1.76, 1.77, "Jpeg Decoder", &make_djpeg},
      {"imgpipe", IlpClass::kHigh, 3.81, 4.05, "Imaging pipeline",
       &make_imgpipe},
      {"x264", IlpClass::kHigh, 3.89, 4.04, "H.264 encoder", &make_x264},
      {"idct", IlpClass::kHigh, 4.79, 5.27, "Inverse DCT", &make_idct},
      {"colorspace", IlpClass::kHigh, 5.47, 8.88, "Colorspace Conversion",
       &make_colorspace},
  };
  return registry;
}

std::string benchmark_names() {
  std::string names;
  for (const BenchmarkInfo& info : benchmark_registry()) {
    if (!names.empty()) names += ", ";
    names += info.name;
  }
  return names;
}

const BenchmarkInfo& benchmark_info(const std::string& name) {
  for (const BenchmarkInfo& info : benchmark_registry())
    if (info.name == name) return info;
  VEXSIM_CHECK_MSG(false, "unknown benchmark '"
                              << name << "': valid names are ["
                              << benchmark_names()
                              << "], or a 'synth:' spec (synthetic programs "
                                 "carry no Figure-13 metadata)");
  static BenchmarkInfo dummy{};
  return dummy;
}

std::shared_ptr<const Program> make_benchmark(const std::string& name,
                                              const MachineConfig& cfg,
                                              double scale,
                                              const cc::CompilerOptions& copt,
                                              cc::CompileStats* stats) {
  // Synthetic specs canonicalize first so spelling variants of one spec
  // ("i0.8" vs "i0.80") share a cache entry (generation is spelling-blind;
  // the canonical mangling round-trips exactly, so distinct specs never
  // alias).
  const bool synth = wl_synth::is_synth_name(name);
  const wl_synth::SynthSpec spec =
      synth ? wl_synth::parse_spec(name) : wl_synth::SynthSpec{};
  const std::string canonical = synth ? spec.name() : name;
  // A synthetic spec's own "cc" field overrides the caller's options; the
  // key uses the *effective* options so the same spec compiled two ways
  // never aliases, while a pinned spec shares one entry across callers.
  const cc::CompilerOptions effective =
      synth && spec.has_compiler ? spec.compiler : copt;
  // The key must cover every config field the compiler reads: the full
  // cluster geometry, the latency model (scheduling and regalloc depend
  // on operation latencies), and the pass-pipeline options — any compiler
  // knob outside the key would silently serve programs compiled with
  // different settings.
  std::ostringstream key;
  key << canonical << "/" << cfg.clusters << ":";
  for (int c = 0; c < cfg.clusters; ++c) {
    key << (c > 0 ? "," : "");
    for (const auto& p : kClusterParams)
      key << cfg.cluster_at(c).*p.member << ".";
  }
  key << (cfg.branch_on_cluster0_only ? "0" : "*") << "/L";
  for (const auto& p : kLatencyParams) key << cfg.lat.*p.member << ".";
  key << "/" << scale << "/cc=" << effective.name() << ":ii"
      << effective.max_ii << ":st" << effective.max_stages
      // verify_each_pass never changes the emitted code, but it must still
      // key the memo: a --cc-verify compile served from a plain compile's
      // entry would silently skip the between-pass checks.
      << (effective.verify_each_pass ? ":v1" : "");

  struct Compiled {
    std::shared_ptr<const Program> program;
    cc::CompileStats stats;
  };
  // Parallel sweep workers share this cache. The lock only guards the map;
  // the (deterministic) compile itself runs outside it, under a per-key
  // future, so first-touch builds of *distinct* programs proceed
  // concurrently while duplicate requests share one build.
  using ProgramFuture = std::shared_future<Compiled>;
  static std::mutex cache_mutex;
  static std::map<std::string, ProgramFuture> cache;
  std::promise<Compiled> promise;
  ProgramFuture future;
  bool owner = false;
  {
    const std::lock_guard<std::mutex> lock(cache_mutex);
    if (const auto it = cache.find(key.str()); it != cache.end()) {
      future = it->second;
    } else {
      future = promise.get_future().share();
      cache[key.str()] = future;
      owner = true;
    }
  }
  if (owner) {
    try {
      Compiled built;
      if (synth) {
        built.program = std::make_shared<Program>(
            wl_synth::generate(spec, cfg, scale, effective, &built.stats));
      } else {
        const BenchmarkInfo& info = benchmark_info(name);
        KernelScale ks;
        ks.outer = scale;
        ks.compiler = effective;
        ks.stats = &built.stats;
        built.program = std::make_shared<Program>(info.factory(cfg, ks));
      }
      // cc::compile finalizes; the factories only add data segments after.
      VEXSIM_CHECK_MSG(built.program->finalized(),
                       canonical << ": factory returned an unfinalized program");
      promise.set_value(std::move(built));
    } catch (...) {
      // Waiters (and later lookups) observe the same deterministic failure.
      promise.set_exception(std::current_exception());
    }
  }
  const Compiled& result = future.get();
  if (stats != nullptr) *stats = result.stats;
  return result.program;
}

}  // namespace vexsim::wl
