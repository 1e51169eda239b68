#include "harness/result_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/sweep.hpp"
#include "mdes/machine.hpp"
#include "stats/json.hpp"
#include "support/test_util.hpp"
#include "util/check.hpp"

namespace vexsim::harness {
namespace {

ExperimentOptions tiny_options() {
  ExperimentOptions opt;
  opt.scale = 0.05;
  opt.budget = 2'000;
  opt.timeslice = 500;
  opt.seed = 7;
  return opt;
}

// Fresh per-test cache directory under the gtest scratch area.
std::string fresh_dir(const std::string& tag) {
  const std::string dir = testing::TempDir() + "/vexsim_result_cache_" + tag;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary);
  os << text;
}

TEST(PointFingerprint, StableAndSensitiveToEveryAxis) {
  const MachineConfig cfg = MachineConfig::paper(2, Technique::csmt());
  const ExperimentOptions opt = tiny_options();
  const std::uint64_t base = point_fingerprint(cfg, "llmm", opt);
  EXPECT_EQ(base, point_fingerprint(cfg, "llmm", opt));

  // Any behaviour-affecting change must move the key.
  ExperimentOptions seed = opt;
  seed.seed = 8;
  EXPECT_NE(base, point_fingerprint(cfg, "llmm", seed));
  ExperimentOptions scale = opt;
  scale.scale = 0.1;
  EXPECT_NE(base, point_fingerprint(cfg, "llmm", scale));
  ExperimentOptions budget = opt;
  budget.budget += 1;
  EXPECT_NE(base, point_fingerprint(cfg, "llmm", budget));

  EXPECT_NE(base, point_fingerprint(cfg, "llhh", opt));
  EXPECT_NE(base,
            point_fingerprint(MachineConfig::paper(4, Technique::csmt()),
                              "llmm", opt));
  EXPECT_NE(base,
            point_fingerprint(
                MachineConfig::paper(2, Technique::ccsi(CommPolicy::kNoSplit)),
                "llmm", opt));
  MachineConfig renamed = cfg;
  renamed.cluster_renaming = false;
  EXPECT_NE(base, point_fingerprint(renamed, "llmm", opt));
  MachineConfig asym = cfg;
  asym.cluster_overrides.assign(static_cast<std::size_t>(asym.clusters),
                                asym.cluster);
  asym.cluster_overrides[0].issue_slots = 8;
  asym.cluster_overrides[0].alus = 8;
  EXPECT_NE(base, point_fingerprint(asym, "llmm", opt));
}

TEST(PointFingerprint, MachineKeysMatchTheirFrozenValues) {
  // Keys frozen before the .conf reader, its writer and this hash walked
  // one parameter table per block. Every cached record is filed under
  // such a key, so a moved table row or a swapped member pointer would
  // orphan whole caches; test::distinct_machine() makes either visible.
  const std::string configs = std::string(VEXSIM_SOURCE_DIR) + "/configs/";
  const struct {
    const char* name;
    MachineConfig cfg;
    const char* key;
  } pins[] = {
      {"default", MachineConfig{}, "51a65702b0d41e18"},
      {"paper 4T OOSI AS",
       MachineConfig::paper(4, Technique::oosi(CommPolicy::kAlwaysSplit)),
       "c1f7339309f4c3b9"},
      {"asym8422.conf", mdes::load_machine(configs + "asym8422.conf"),
       "68c1ca5e66cf19ba"},
      {"mem_dram.conf", mdes::load_machine(configs + "mem_dram.conf"),
       "4a6c8c53f1dcefd5"},
      {"distinct", test::distinct_machine(), "cc88596a1097257d"},
  };
  for (const auto& pin : pins)
    EXPECT_EQ(fingerprint_hex(point_fingerprint(pin.cfg, "llmm",
                                                tiny_options())),
              pin.key)
        << pin.name;
}

TEST(PointFingerprint, CanonicalizesSynthSpecSpelling) {
  const MachineConfig cfg = MachineConfig::paper(2, Technique::csmt());
  const ExperimentOptions opt = tiny_options();
  // Field order and defaulted fields don't change the resolved program.
  EXPECT_EQ(point_fingerprint(cfg, "synth:i0.8-m0.3", opt),
            point_fingerprint(cfg, "synth:m0.3-i0.8", opt));
  EXPECT_EQ(point_fingerprint(cfg, "synth:i0.5-m0.1-b0-c0-n64-s1", opt),
            point_fingerprint(cfg, "synth:i0.5", opt));
  // A changed dial does.
  EXPECT_NE(point_fingerprint(cfg, "synth:i0.8-m0.3", opt),
            point_fingerprint(cfg, "synth:i0.8-m0.4", opt));
}

TEST(PointFingerprint, UnknownWorkloadThrows) {
  EXPECT_THROW((void)point_fingerprint(
                   MachineConfig::paper(2, Technique::csmt()), "no-such-mix",
                   tiny_options()),
               CheckError);
}

TEST(ResultCache, StoreLoadRoundTripsEveryField) {
  const ResultCache cache(fresh_dir("roundtrip"));
  const MachineConfig cfg = MachineConfig::paper(2, Technique::csmt());
  const ExperimentOptions opt = tiny_options();
  RunResult fresh = run_workload_on(cfg, "llmm", opt);
  fresh.attempts = 2;  // provenance must round-trip too
  const std::uint64_t key = point_fingerprint(cfg, "llmm", opt);

  EXPECT_FALSE(cache.load(key).has_value());  // cold cache: miss
  cache.store(key, "llmm", fresh);
  const auto loaded = cache.load(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->cached);
  EXPECT_TRUE(loaded->cache_hit);
  EXPECT_EQ(loaded->attempts, 2);
  EXPECT_FALSE(loaded->failed);

  EXPECT_EQ(loaded->issue_width, fresh.issue_width);
  test::expect_same_stats(*loaded, fresh, "round trip");
}

TEST(ResultCache, CorruptAndStaleRecordsAreMisses) {
  const ResultCache cache(fresh_dir("corrupt"));
  const MachineConfig cfg = MachineConfig::paper(2, Technique::csmt());
  const ExperimentOptions opt = tiny_options();
  const RunResult fresh = run_workload_on(cfg, "llmm", opt);
  const std::uint64_t key = point_fingerprint(cfg, "llmm", opt);
  cache.store(key, "llmm", fresh);
  const std::string path = cache.entry_path(key);
  const std::string good = read_file(path);

  // Truncated record.
  write_file(path, good.substr(0, good.size() / 2));
  EXPECT_FALSE(cache.load(key).has_value());

  // Arbitrary garbage.
  write_file(path, "not json at all {{{");
  EXPECT_FALSE(cache.load(key).has_value());

  // Valid JSON with a missing field.
  write_file(path, "{\n  \"version\": \"" + std::string(kSimVersionTag) +
                       "\"\n}\n");
  EXPECT_FALSE(cache.load(key).has_value());

  // Stale simulator version: parseable, complete, but from another engine.
  Json stale = Json::parse(good);
  stale.set("version", "vexsim-sim-pr2");
  write_file(path, stale.dump());
  EXPECT_FALSE(cache.load(key).has_value());

  // Key mismatch (record copied onto the wrong path).
  Json moved = Json::parse(good);
  moved.set("key", "0000000000000000");
  write_file(path, moved.dump());
  EXPECT_FALSE(cache.load(key).has_value());

  // Not a regular file: a directory where the record belongs.
  std::filesystem::remove(path);
  std::filesystem::create_directory(path);
  EXPECT_FALSE(cache.load(key).has_value());
  std::filesystem::remove(path);

  // A miss leaves nothing behind: restoring the record file restores the
  // hit on the same instance.
  write_file(path, good);
  EXPECT_TRUE(cache.load(key).has_value());
}

TEST(ResultCache, RefusesToStoreFailedResults) {
  const ResultCache cache(fresh_dir("failed"));
  RunResult failed;
  failed.failed = true;
  failed.error = "timed out";
  EXPECT_THROW(cache.store(1, "llmm", failed), CheckError);
}

TEST(ResultCache, CreatesNestedDirectory) {
  const std::string dir = fresh_dir("nested") + "/a/b";
  const ResultCache cache(dir);
  EXPECT_TRUE(std::filesystem::is_directory(dir));
  EXPECT_EQ(cache.dir(), dir);
}


TEST(PointFingerprint, CompilerOptionsNeverAlias) {
  // Satellite regression: a sweep point simulated under one compiler
  // variant must never serve a record produced under another — both
  // codegen-relevant CompilerOptions fields are part of the key.
  const MachineConfig cfg = MachineConfig::paper(2, Technique::csmt());
  ExperimentOptions opt = tiny_options();
  const std::uint64_t base = point_fingerprint(cfg, "llmm", opt);

  ExperimentOptions cost = opt;
  cost.compiler = cc::CompilerOptions::parse("cost");
  EXPECT_NE(base, point_fingerprint(cfg, "llmm", cost));

  ExperimentOptions swp = opt;
  swp.compiler = cc::CompilerOptions::parse("greedy_swp");
  EXPECT_NE(base, point_fingerprint(cfg, "llmm", swp));
  EXPECT_NE(point_fingerprint(cfg, "llmm", cost),
            point_fingerprint(cfg, "llmm", swp));

  // Identical options reproduce the key.
  ExperimentOptions same = opt;
  same.compiler = cc::CompilerOptions::parse("greedy");
  EXPECT_EQ(base, point_fingerprint(cfg, "llmm", same));
}

TEST(PointFingerprint, SynthCompilerFieldMovesTheKey) {
  const MachineConfig cfg = MachineConfig::paper(1, Technique::smt());
  const ExperimentOptions opt = tiny_options();
  EXPECT_NE(point_fingerprint(cfg, "synth:i0.8-s1", opt),
            point_fingerprint(cfg, "synth:i0.8-s1-cccost", opt));
}

TEST(ResultCache, RoundTripsCompileSummary) {
  ResultCache cache(fresh_dir("compile_summary"));
  RunResult r;
  r.issue_width = 16;
  r.compile.instructions = 120;
  r.compile.operations = 480;
  r.compile.copies_inserted = 17;
  r.compile.swp_loops = 2;
  r.compile.present = true;
  cache.store(1234, "llmm", r);
  const auto loaded = cache.load(1234);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->compile.instructions, 120u);
  EXPECT_EQ(loaded->compile.operations, 480u);
  EXPECT_EQ(loaded->compile.copies_inserted, 17u);
  EXPECT_EQ(loaded->compile.swp_loops, 2u);
  EXPECT_TRUE(loaded->compile.present);
}

// Every counter of the seven counter structs at a distinct nonzero value
// (the hundreds digit names the block), on a hierarchy-backend result with
// two instances. A counter written under another's name, or two written in
// swapped order, changes the bytes of both JSON forms.
RunResult every_counter_result() {
  RunResult r;
  r.issue_width = 16;
  r.attempts = 2;
  r.cached = true;
  r.sim.cycles = 101;
  r.sim.ops_issued = 102;
  r.sim.instructions_retired = 103;
  r.sim.split_instructions = 104;
  r.sim.vertical_waste_cycles = 105;
  r.sim.multi_thread_cycles = 106;
  r.sim.memport_stall_cycles = 107;
  r.sim.drain_cycles = 108;
  r.sim.taken_branches = 109;
  r.sim.faults = 110;
  r.icache.hits = 201;
  r.icache.misses = 202;
  r.dcache.hits = 301;
  r.dcache.misses = 302;
  r.memory.present = true;
  r.memory.imshr.allocations = 401;
  r.memory.imshr.merges = 402;
  r.memory.imshr.full_stalls = 403;
  r.memory.imshr.peak_occupancy = 404;
  r.memory.dmshr.allocations = 501;
  r.memory.dmshr.merges = 502;
  r.memory.dmshr.full_stalls = 503;
  r.memory.dmshr.peak_occupancy = 504;
  r.memory.l2.hits = 601;
  r.memory.l2.misses = 602;
  r.memory.dram.row_hits = 701;
  r.memory.dram.row_closed = 702;
  r.memory.dram.row_conflicts = 703;
  r.merge.full_selections = 801;
  r.merge.partial_selections = 802;
  r.merge.blocked_selections = 803;
  r.merge.comm_nosplit_forced = 804;
  r.compile.instructions = 901;
  r.compile.operations = 902;
  r.compile.copies_inserted = 903;
  r.compile.swp_loops = 904;
  r.compile.present = true;
  for (std::uint64_t i = 0; i < 2; ++i) {
    InstanceResult inst;
    inst.name = i == 0 ? "idct" : "g721encode";
    const std::uint64_t base = 1000 + 100 * i;
    inst.instructions = base + 1;
    inst.respawns = base + 2;
    inst.arch_fingerprint = i == 0 ? 0x0123456789abcdefull
                                   : 0xfedcba9876543210ull;
    inst.faulted = i == 1;
    inst.counters.instructions = base + 11;
    inst.counters.ops = base + 12;
    inst.counters.taken_branches = base + 13;
    inst.counters.split_instructions = base + 14;
    inst.counters.dmiss_block_cycles = base + 15;
    inst.counters.imiss_block_cycles = base + 16;
    r.instances.push_back(std::move(inst));
  }
  return r;
}

constexpr std::uint64_t kPinnedKey = 0x0123456789abcdefull;

std::string golden_path(const std::string& name) {
  return std::string(VEXSIM_SOURCE_DIR) + "/tests/golden/" + name +
         ".golden.json";
}

// Byte-compares `text` with tests/golden/<name>.golden.json. On a mismatch
// it writes `text` to <name>.actual.json in the build directory; copying
// that over the golden regenerates it (only for a deliberate format change).
void expect_golden(const std::string& name, const std::string& text) {
  if (text == read_file(golden_path(name))) return;
  const std::string actual =
      std::string(VEXSIM_BINARY_DIR) + "/" + name + ".actual.json";
  write_file(actual, text);
  ADD_FAILURE() << name << " differs from " << golden_path(name)
                << "; this build's bytes: " << actual;
}

TEST(ResultCache, BothJsonFormsMatchTheirFrozenBytes) {
  // The cache record and the trajectory entry of one result, frozen before
  // their writers shared one field table per counter block.
  const RunResult r = every_counter_result();
  const ResultCache cache(fresh_dir("format_pin"));
  cache.store(kPinnedKey, "idct+g721encode", r);
  expect_golden("result_record", read_file(cache.entry_path(kPinnedKey)));

  const SweepPoint point{
      "2T/CCSI AS/idct+g721encode",
      MachineConfig::paper(2, Technique::ccsi(CommPolicy::kAlwaysSplit)),
      "idct+g721encode", tiny_options()};
  expect_golden("sweep_point", sweep_point_json(point, r).dump());
}

TEST(ResultCache, FrozenRecordLoadsEveryField) {
  const ResultCache cache(fresh_dir("format_load"));
  write_file(cache.entry_path(kPinnedKey),
             read_file(golden_path("result_record")));
  const auto loaded = cache.load(kPinnedKey);
  ASSERT_TRUE(loaded.has_value());
  const RunResult want = every_counter_result();
  EXPECT_EQ(loaded->issue_width, want.issue_width);
  EXPECT_EQ(loaded->attempts, want.attempts);
  EXPECT_TRUE(loaded->cached);
  EXPECT_FALSE(loaded->failed);
  test::expect_same_stats(*loaded, want, "frozen record");
  EXPECT_EQ(loaded->compile.instructions, want.compile.instructions);
  EXPECT_EQ(loaded->compile.operations, want.compile.operations);
  EXPECT_EQ(loaded->compile.copies_inserted, want.compile.copies_inserted);
  EXPECT_EQ(loaded->compile.swp_loops, want.compile.swp_loops);
  EXPECT_TRUE(loaded->compile.present);
}

// A small valid (non-failed) result to populate caches with; contents don't
// matter, only that store() accepts it and load() round-trips it.
RunResult synthetic_result(std::uint64_t cycles) {
  RunResult r;
  r.issue_width = 16;
  r.sim.cycles = cycles;
  r.sim.instructions_retired = cycles / 2;
  return r;
}

// Names of the files in `dir`, sorted.
std::vector<std::string> files_in(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    names.push_back(e.path().filename().string());
  std::sort(names.begin(), names.end());
  return names;
}

TEST(PointFingerprint, FingerprintHexIsCanonical) {
  EXPECT_EQ(fingerprint_hex(0), "0000000000000000");
  EXPECT_EQ(fingerprint_hex(0xdeadbeefcafef00dull), "deadbeefcafef00d");
  EXPECT_EQ(fingerprint_hex(~0ull), "ffffffffffffffff");
}

TEST(ResultCache, NewInstanceServesExistingRecords) {
  const std::string dir = fresh_dir("reload");
  {
    const ResultCache writer(dir);
    writer.store(7, "llmm", synthetic_result(700));
    writer.store(8, "llmm", synthetic_result(800));
  }
  const ResultCache reader(dir);
  for (const std::uint64_t k : {7ull, 8ull}) {
    const auto loaded = reader.load(k);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->sim.cycles, k * 100);
  }
  EXPECT_FALSE(reader.load(9).has_value());
}

TEST(ResultCache, RecordStoredAfterOpenIsAHit) {
  // A cache opened first, and a second one (as another shard process would
  // hold) on the same directory: what the second stores after the first
  // was opened is a hit for the first, with no re-open.
  const std::string dir = fresh_dir("stored_after_open");
  const ResultCache first(dir);
  EXPECT_FALSE(first.load(21).has_value());
  const ResultCache second(dir);
  second.store(21, "llmm", synthetic_result(2100));
  const auto loaded = first.load(21);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->sim.cycles, 2100u);
}

TEST(ResultCache, ConcurrentWritersLoseNoRecords) {
  // Two ResultCache instances (as two shard processes would have) store
  // disjoint key ranges into one fresh directory concurrently. A fresh
  // reader must load every record, and only the record files remain: no
  // temp file is left behind. Runs under the TSan preset via the suite
  // filter.
  const std::string dir = fresh_dir("concurrent");
  constexpr std::uint64_t kPerWriter = 200;
  const auto writer = [&dir](std::uint64_t base) {
    const ResultCache cache(dir);
    for (std::uint64_t i = 0; i < kPerWriter; ++i)
      cache.store(base + i, "llmm", synthetic_result(base + i));
  };
  std::thread a(writer, 1'000);
  std::thread b(writer, 2'000);
  a.join();
  b.join();

  const ResultCache reader(dir);
  for (std::uint64_t base : {1'000ull, 2'000ull})
    for (std::uint64_t i = 0; i < kPerWriter; ++i) {
      const auto loaded = reader.load(base + i);
      ASSERT_TRUE(loaded.has_value());
      EXPECT_EQ(loaded->sim.cycles, base + i);
    }
  EXPECT_EQ(files_in(dir).size(), 2 * kPerWriter);
}

TEST(CacheGc, ParseSizeBytes) {
  EXPECT_EQ(parse_size_bytes("0"), 0u);
  EXPECT_EQ(parse_size_bytes("123"), 123u);
  EXPECT_EQ(parse_size_bytes("4K"), 4096u);
  EXPECT_EQ(parse_size_bytes("4k"), 4096u);
  EXPECT_EQ(parse_size_bytes("2M"), 2u * 1024 * 1024);
  EXPECT_EQ(parse_size_bytes("1G"), 1024u * 1024 * 1024);
  EXPECT_THROW((void)parse_size_bytes(""), CheckError);
  EXPECT_THROW((void)parse_size_bytes("true"), CheckError);  // bare flag
  EXPECT_THROW((void)parse_size_bytes("K"), CheckError);
  EXPECT_THROW((void)parse_size_bytes("12Q"), CheckError);
  EXPECT_THROW((void)parse_size_bytes("1.5M"), CheckError);
  EXPECT_THROW((void)parse_size_bytes("-1"), CheckError);
}

TEST(CacheGc, ParseSizeBytesRejectsCountsAboveInt64Max) {
  // A product past 2^63 must not wrap: 2^64 bytes would read as a budget
  // of 0 and evict the whole cache.
  EXPECT_THROW((void)parse_size_bytes("17179869184G"), CheckError);
  EXPECT_THROW((void)parse_size_bytes("99999999999G"), CheckError);
  EXPECT_THROW((void)parse_size_bytes("8589934592G"), CheckError);  // 2^63
  // 2^63 - 2^30, the largest whole-G budget, is still accepted.
  EXPECT_EQ(parse_size_bytes("8589934591G"), (1ull << 63) - (1ull << 30));
  EXPECT_EQ(parse_size_bytes("999999999999999"), 999'999'999'999'999u);
}

TEST(CacheGc, EvictsOldestUntilBudget) {
  const std::string dir = fresh_dir("gc_lru");
  const ResultCache cache(dir);
  for (std::uint64_t k = 1; k <= 4; ++k)
    cache.store(k, "llmm", synthetic_result(k));
  // Explicit mtimes make LRU order deterministic: keys 1 and 2 are oldest.
  namespace fs = std::filesystem;
  const auto now = fs::file_time_type::clock::now();
  using std::chrono::hours;
  fs::last_write_time(cache.entry_path(1), now - hours(4));
  fs::last_write_time(cache.entry_path(2), now - hours(3));
  fs::last_write_time(cache.entry_path(3), now - hours(2));
  fs::last_write_time(cache.entry_path(4), now - hours(1));

  const std::uint64_t per_record =
      static_cast<std::uint64_t>(fs::file_size(cache.entry_path(1)));
  const CacheGcStats stats = cache.gc(2 * per_record + per_record / 2);
  EXPECT_EQ(stats.records_before, 4u);
  EXPECT_EQ(stats.evicted, 2u);
  EXPECT_EQ(stats.records_after, 2u);
  EXPECT_LE(stats.bytes_after, 2 * per_record + per_record / 2);

  EXPECT_FALSE(cache.load(1).has_value());
  EXPECT_FALSE(cache.load(2).has_value());
  EXPECT_TRUE(cache.load(3).has_value());
  EXPECT_TRUE(cache.load(4).has_value());
  EXPECT_FALSE(fs::exists(cache.entry_path(1)));
  EXPECT_FALSE(fs::exists(cache.entry_path(2)));
}

TEST(CacheGc, ZeroBudgetEmptiesTheCache) {
  const ResultCache cache(fresh_dir("gc_zero"));
  cache.store(1, "llmm", synthetic_result(1));
  cache.store(2, "llmm", synthetic_result(2));
  const CacheGcStats stats = cache.gc(0);
  EXPECT_EQ(stats.evicted, 2u);
  EXPECT_EQ(stats.records_after, 0u);
  EXPECT_EQ(stats.bytes_after, 0u);
  EXPECT_TRUE(files_in(cache.dir()).empty());
  // The directory stays usable.
  cache.store(3, "llmm", synthetic_result(3));
  EXPECT_TRUE(cache.load(3).has_value());
}

TEST(CacheGc, LargeBudgetEvictsNothing) {
  const ResultCache cache(fresh_dir("gc_noop"));
  cache.store(1, "llmm", synthetic_result(1));
  const CacheGcStats stats = cache.gc(1ull << 40);
  EXPECT_EQ(stats.evicted, 0u);
  EXPECT_EQ(stats.records_after, 1u);
  EXPECT_TRUE(cache.load(1).has_value());
}

TEST(CacheGc, CountsEveryRecordFileAndNoOtherFile) {
  // gc() sees every record file in the directory: one this instance
  // stored, one another instance stored after this one was opened, and one
  // copied into place by hand. Files that are not named like a record are
  // neither counted nor deleted.
  const std::string dir = fresh_dir("gc_scan");
  const ResultCache cache(dir);
  cache.store(1, "llmm", synthetic_result(1));
  ResultCache(dir).store(2, "llmm", synthetic_result(2));
  std::filesystem::copy_file(cache.entry_path(2), cache.entry_path(3));
  write_file(dir + "/notes.txt", "hello");
  write_file(dir + "/zzzz.json", "{}");
  std::uint64_t record_bytes = 0;
  for (const std::uint64_t k : {1ull, 2ull, 3ull})
    record_bytes += std::filesystem::file_size(cache.entry_path(k));

  const CacheGcStats stats = cache.gc(0);
  EXPECT_EQ(stats.records_before, 3u);
  EXPECT_EQ(stats.bytes_before, record_bytes);
  EXPECT_EQ(stats.evicted, 3u);
  EXPECT_EQ(files_in(dir), (std::vector<std::string>{"notes.txt", "zzzz.json"}));
}

}  // namespace
}  // namespace vexsim::harness
