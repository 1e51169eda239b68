#include "harness/result_cache.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "stats/json.hpp"
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
  EXPECT_EQ(loaded->sim.cycles, fresh.sim.cycles);
  EXPECT_EQ(loaded->sim.ops_issued, fresh.sim.ops_issued);
  EXPECT_EQ(loaded->sim.instructions_retired, fresh.sim.instructions_retired);
  EXPECT_EQ(loaded->sim.split_instructions, fresh.sim.split_instructions);
  EXPECT_EQ(loaded->sim.vertical_waste_cycles, fresh.sim.vertical_waste_cycles);
  EXPECT_EQ(loaded->sim.multi_thread_cycles, fresh.sim.multi_thread_cycles);
  EXPECT_EQ(loaded->sim.memport_stall_cycles, fresh.sim.memport_stall_cycles);
  EXPECT_EQ(loaded->sim.drain_cycles, fresh.sim.drain_cycles);
  EXPECT_EQ(loaded->sim.taken_branches, fresh.sim.taken_branches);
  EXPECT_EQ(loaded->sim.faults, fresh.sim.faults);
  EXPECT_EQ(loaded->icache.hits, fresh.icache.hits);
  EXPECT_EQ(loaded->icache.misses, fresh.icache.misses);
  EXPECT_EQ(loaded->dcache.hits, fresh.dcache.hits);
  EXPECT_EQ(loaded->dcache.misses, fresh.dcache.misses);
  EXPECT_EQ(loaded->merge.full_selections, fresh.merge.full_selections);
  EXPECT_EQ(loaded->merge.partial_selections, fresh.merge.partial_selections);
  EXPECT_EQ(loaded->merge.blocked_selections, fresh.merge.blocked_selections);
  EXPECT_EQ(loaded->merge.comm_nosplit_forced, fresh.merge.comm_nosplit_forced);
  ASSERT_EQ(loaded->instances.size(), fresh.instances.size());
  for (std::size_t i = 0; i < fresh.instances.size(); ++i) {
    const InstanceResult& a = fresh.instances[i];
    const InstanceResult& b = loaded->instances[i];
    EXPECT_EQ(b.name, a.name);
    EXPECT_EQ(b.instructions, a.instructions);
    EXPECT_EQ(b.respawns, a.respawns);
    EXPECT_EQ(b.arch_fingerprint, a.arch_fingerprint);
    EXPECT_EQ(b.faulted, a.faulted);
    EXPECT_EQ(b.counters.instructions, a.counters.instructions);
    EXPECT_EQ(b.counters.ops, a.counters.ops);
    EXPECT_EQ(b.counters.taken_branches, a.counters.taken_branches);
    EXPECT_EQ(b.counters.split_instructions, a.counters.split_instructions);
    EXPECT_EQ(b.counters.dmiss_block_cycles, a.counters.dmiss_block_cycles);
    EXPECT_EQ(b.counters.imiss_block_cycles, a.counters.imiss_block_cycles);
  }
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

  // Not a regular file: a directory where the record belongs. A fresh
  // instance still indexes the key, so this load really opens the path.
  std::filesystem::remove(path);
  std::filesystem::create_directory(path);
  EXPECT_FALSE(ResultCache(cache.dir()).load(key).has_value());
  std::filesystem::remove(path);

  // The corrupt loads dropped the key from this instance's index; restoring
  // the record file restores the hit for a fresh instance (which re-reads
  // the on-disk index, where the append survives).
  write_file(path, good);
  EXPECT_FALSE(cache.probe(key));
  EXPECT_TRUE(ResultCache(cache.dir()).load(key).has_value());
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
  // variant must never serve a record produced under another — every
  // CompilerOptions field is part of the key.
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

  ExperimentOptions tuned = opt;
  tuned.compiler.max_ii = 32;
  EXPECT_NE(base, point_fingerprint(cfg, "llmm", tuned));
  ExperimentOptions staged = opt;
  staged.compiler.max_stages = 4;
  EXPECT_NE(base, point_fingerprint(cfg, "llmm", staged));

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

// A small valid (non-failed) result to populate caches with in the index
// tests; contents don't matter, only that store() accepts it and load()
// round-trips it.
RunResult synthetic_result(std::uint64_t cycles) {
  RunResult r;
  r.issue_width = 16;
  r.sim.cycles = cycles;
  r.sim.instructions_retired = cycles / 2;
  return r;
}

TEST(CacheIndex, FingerprintHexIsCanonical) {
  EXPECT_EQ(fingerprint_hex(0), "0000000000000000");
  EXPECT_EQ(fingerprint_hex(0xdeadbeefcafef00dull), "deadbeefcafef00d");
  EXPECT_EQ(fingerprint_hex(~0ull), "ffffffffffffffff");
}

TEST(CacheIndex, ParseSizeBytes) {
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

TEST(CacheIndex, ProbeAndIndexSizeTrackStores) {
  const ResultCache cache(fresh_dir("index_probe"));
  EXPECT_EQ(cache.index_size(), 0u);
  EXPECT_FALSE(cache.probe(42));
  cache.store(42, "llmm", synthetic_result(100));
  cache.store(43, "llmm", synthetic_result(200));
  EXPECT_TRUE(cache.probe(42));
  EXPECT_TRUE(cache.probe(43));
  EXPECT_FALSE(cache.probe(44));
  EXPECT_EQ(cache.index_size(), 2u);
  // Re-storing an existing key must not grow the index (or the file).
  cache.store(42, "llmm", synthetic_result(100));
  EXPECT_EQ(cache.index_size(), 2u);
}

TEST(CacheIndex, NewInstancePicksUpExistingIndex) {
  const std::string dir = fresh_dir("index_reload");
  {
    const ResultCache writer(dir);
    writer.store(7, "llmm", synthetic_result(700));
    writer.store(8, "llmm", synthetic_result(800));
  }
  const ResultCache reader(dir);
  EXPECT_EQ(reader.index_size(), 2u);
  const auto loaded = reader.load(7);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->sim.cycles, 700u);
}

TEST(CacheIndex, DeletedIndexIsRebuiltWithIdenticalHits) {
  const std::string dir = fresh_dir("index_rebuild");
  {
    const ResultCache writer(dir);
    for (std::uint64_t k = 1; k <= 20; ++k)
      writer.store(k, "llmm", synthetic_result(k * 10));
  }
  std::filesystem::remove(ResultCache(dir).index_path());
  ASSERT_FALSE(std::filesystem::exists(dir + "/cache.index"));

  const ResultCache rebuilt(dir);  // ctor rebuilds from the directory scan
  EXPECT_EQ(rebuilt.index_size(), 20u);
  EXPECT_TRUE(std::filesystem::exists(rebuilt.index_path()));
  for (std::uint64_t k = 1; k <= 20; ++k) {
    const auto loaded = rebuilt.load(k);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->sim.cycles, k * 10);
  }
}

TEST(CacheIndex, CorruptIndexIsRebuiltTransparently) {
  const std::string dir = fresh_dir("index_corrupt");
  {
    const ResultCache writer(dir);
    writer.store(5, "llmm", synthetic_result(500));
    writer.store(6, "llmm", synthetic_result(600));
  }
  const std::string index_path = dir + "/cache.index";

  // Garbage header.
  write_file(index_path, "not an index\n");
  EXPECT_EQ(ResultCache(dir).index_size(), 2u);

  // Torn trailing line (simulated crash mid-append).
  write_file(index_path,
             "vexsim-cache-index v1\n" + fingerprint_hex(5) +
                 " 0000000000000005.json\n" + fingerprint_hex(6).substr(0, 9));
  const ResultCache rebuilt(dir);
  EXPECT_EQ(rebuilt.index_size(), 2u);
  const auto loaded = rebuilt.load(6);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->sim.cycles, 600u);

  // Stray non-record files must not be indexed by the rebuild.
  write_file(dir + "/notes.txt", "hello");
  write_file(dir + "/zzzz.json", "{}");
  std::filesystem::remove(index_path);
  EXPECT_EQ(ResultCache(dir).index_size(), 2u);
}

TEST(CacheIndex, CorruptRecordIsDroppedFromIndexOnLoad) {
  const ResultCache cache(fresh_dir("index_drop"));
  cache.store(9, "llmm", synthetic_result(900));
  EXPECT_TRUE(cache.probe(9));
  write_file(cache.entry_path(9), "garbage");
  EXPECT_FALSE(cache.load(9).has_value());
  EXPECT_FALSE(cache.probe(9));  // the bad entry is forgotten
}

TEST(CacheIndex, ConcurrentWritersLoseNoRecords) {
  // Two ResultCache instances (as two shard processes would have) store
  // disjoint key ranges into one directory concurrently. Every record and
  // every index line must survive: O_APPEND single-write appends interleave
  // whole lines. Runs under the TSan preset via the suite filter.
  const std::string dir = fresh_dir("index_concurrent");
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
  EXPECT_EQ(reader.index_size(), 2 * kPerWriter);
  for (std::uint64_t base : {1'000ull, 2'000ull})
    for (std::uint64_t i = 0; i < kPerWriter; ++i) {
      const auto loaded = reader.load(base + i);
      ASSERT_TRUE(loaded.has_value());
      EXPECT_EQ(loaded->sim.cycles, base + i);
    }

  // The index file itself must be exactly one header plus one whole,
  // well-formed line per record — no torn interleavings.
  std::ifstream is(reader.index_path());
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(line, "vexsim-cache-index v1");
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    ASSERT_EQ(line.size(), 16u + 1 + 21);
    EXPECT_EQ(line[16], ' ');
    ++lines;
  }
  EXPECT_EQ(lines, 2 * kPerWriter);
}

TEST(CacheGc, EvictsOldestUntilBudgetAndRewritesIndex) {
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

  EXPECT_FALSE(cache.probe(1));
  EXPECT_FALSE(cache.probe(2));
  EXPECT_TRUE(cache.load(3).has_value());
  EXPECT_TRUE(cache.load(4).has_value());
  EXPECT_FALSE(fs::exists(cache.entry_path(1)));
  EXPECT_FALSE(fs::exists(cache.entry_path(2)));

  // A fresh instance reads a consistent rewritten index.
  const ResultCache reader(dir);
  EXPECT_EQ(reader.index_size(), 2u);
  EXPECT_TRUE(reader.load(4).has_value());
}

TEST(CacheGc, ZeroBudgetEmptiesTheCache) {
  const ResultCache cache(fresh_dir("gc_zero"));
  cache.store(1, "llmm", synthetic_result(1));
  cache.store(2, "llmm", synthetic_result(2));
  const CacheGcStats stats = cache.gc(0);
  EXPECT_EQ(stats.records_after, 0u);
  EXPECT_EQ(stats.bytes_after, 0u);
  EXPECT_EQ(cache.index_size(), 0u);
  // The directory and index stay usable.
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

TEST(CacheIndex, LoadUnindexedMatchesIndexedLoad) {
  const ResultCache cache(fresh_dir("index_bypass"));
  cache.store(11, "llmm", synthetic_result(1100));
  const auto indexed = cache.load(11);
  const auto direct = cache.load_unindexed(11);
  ASSERT_TRUE(indexed.has_value());
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(indexed->sim.cycles, direct->sim.cycles);
  EXPECT_EQ(indexed->sim.instructions_retired,
            direct->sim.instructions_retired);
  EXPECT_FALSE(cache.load_unindexed(12).has_value());
}

}  // namespace
}  // namespace vexsim::harness
