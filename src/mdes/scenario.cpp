#include "mdes/scenario.hpp"

#include <sstream>

#include "util/check.hpp"

namespace vexsim::mdes {

namespace {

std::uint64_t get_u64(SectionReader& r, const std::string& key,
                      std::uint64_t def, Diagnostics& diags) {
  const Entry* entry = r.section().find(key);
  const auto v = r.get_int_opt(key);
  if (!v) return def;
  if (*v < 0) {
    diags.add(entry->loc, key + " = " + std::to_string(*v) +
                              " must be non-negative");
    return def;
  }
  return static_cast<std::uint64_t>(*v);
}

}  // namespace

Scenario scenario_from(const ConfigFile& file, const Interp& interp,
                       Diagnostics& diags) {
  Scenario s;
  const Section* sec = file.section("scenario");
  if (sec == nullptr) {
    diags.add({file.origin(), 0}, "missing [scenario] section");
    return s;
  }
  SectionReader r(interp, *sec, diags);
  if (const auto workload = r.get_string_opt("workload"))
    s.workload = *workload;
  else if (sec->find("workload") == nullptr)
    diags.add(sec->loc, "[scenario] needs a workload key");
  s.contexts = r.get_int_in("contexts", s.contexts, 1, kMaxHwThreads);
  if (const Entry* entry = sec->find("technique"); entry != nullptr) {
    if (const auto name = r.get_string_opt("technique")) {
      try {
        s.technique = Technique::parse(*name);
        s.has_technique = true;
      } catch (const CheckError& e) {
        diags.add(entry->loc, e.what());
      }
    }
  }
  s.opt.scale = r.get_double("scale", s.opt.scale);
  if (s.opt.scale <= 0.0)  // the default is positive, so the key is present
    diags.add(sec->find("scale")->loc,
              "scale = " + format_double(s.opt.scale) + " must be positive");
  s.opt.budget = get_u64(r, "budget", s.opt.budget, diags);
  s.opt.timeslice = get_u64(r, "timeslice", s.opt.timeslice, diags);
  s.opt.max_cycles = get_u64(r, "max_cycles", s.opt.max_cycles, diags);
  s.opt.seed = get_u64(r, "seed", s.opt.seed, diags);
  s.opt.fast_forward = r.get_bool("fast_forward", s.opt.fast_forward);
  if (const Entry* entry = sec->find("compiler"); entry != nullptr) {
    if (const auto name = r.get_string_opt("compiler")) {
      try {
        s.opt.compiler = cc::CompilerOptions::parse(*name);
      } catch (const CheckError& e) {
        diags.add(entry->loc, e.what());
      }
    }
  }
  r.check_unknown("[scenario]");
  return s;
}

MachineConfig apply(const Scenario& s, MachineConfig base) {
  if (s.contexts > 0) base.hw_threads = s.contexts;
  if (s.has_technique) base.technique = s.technique;
  return base;
}

MachineScenario load_machine_scenario(const std::string& path) {
  const ConfigFile file = ConfigFile::parse_file(path);
  const Interp interp(file);
  Diagnostics diags;
  MachineScenario ms;
  ms.machine = machine_from(file, interp, diags);
  ms.scenario = scenario_from(file, interp, diags);
  ms.machine = apply(ms.scenario, ms.machine);
  if (diags.empty())
    for (const std::string& issue : ms.machine.validate_issues())
      diags.add({path, 0}, issue);
  diags.throw_if_any("scenario " + path);
  return ms;
}

std::string to_config(const Scenario& s) {
  std::ostringstream os;
  os << "[scenario]\n"
     << "workload = '" << s.workload << "'\n";
  if (s.contexts > 0) os << "contexts = " << s.contexts << "\n";
  if (s.has_technique) os << "technique = '" << s.technique.name() << "'\n";
  os << "scale = " << format_double(s.opt.scale) << "\n"
     << "budget = " << s.opt.budget << "\n"
     << "timeslice = " << s.opt.timeslice << "\n"
     << "max_cycles = " << s.opt.max_cycles << "\n"
     << "seed = " << s.opt.seed << "\n"
     << "fast_forward = " << (s.opt.fast_forward ? "true" : "false") << "\n"
     << "compiler = '" << s.opt.compiler.name() << "'\n";
  return os.str();
}

}  // namespace vexsim::mdes
