// vexmerge: fold per-shard sweep JSONs (bench `--shard i/N` output, or
// vexplore shard reports) back into the single trajectory a one-process run
// would have written — byte-identical, because the shard documents embed the
// exact per-point JSON subtrees and the manifest pins their order.
//
// Validation before any output: every input must carry the same experiment,
// kind, shard count, and point manifest (label + fingerprint per point);
// overlapping byte-identical records are deduped; two byte-differing records
// for one fingerprint are a hard error naming the point.
//
// When points are missing — a shard file absent, or one holding only part
// of its slice — vexmerge exits 1 and writes a resume manifest (--resume
// FILE, default <out>.resume.json) listing every missing point and the shard
// that owns it, so the operator can re-dispatch exactly the gaps. Output
// files are written atomically (write_json_file).
//
// Usage: vexmerge --out FILE [--resume FILE] shard1.json shard2.json ...
// Any other option is an error (exit 2).
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "harness/shard.hpp"
#include "stats/json.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace vexsim;
  try {
    const Cli cli(argc, argv);
    VEXSIM_CHECK_MSG(cli.has("out"), "vexmerge needs --out FILE");
    const std::string out = cli.get("out", "");
    const std::string resume_path = cli.get("resume", out + ".resume.json");
    cli.reject_unknown();
    const std::vector<std::string>& files = cli.positional();
    VEXSIM_CHECK_MSG(!files.empty(),
                     "vexmerge needs at least one shard JSON file; usage: "
                     "vexmerge --out FILE [--resume FILE] shard1.json ...");

    std::vector<Json> docs;
    docs.reserve(files.size());
    for (const std::string& f : files) {
      std::ifstream is(f, std::ios::binary);
      VEXSIM_CHECK_MSG(is.good(), "cannot open shard file " << f);
      const std::string text((std::istreambuf_iterator<char>(is)),
                             std::istreambuf_iterator<char>());
      try {
        docs.push_back(Json::parse(text));
      } catch (const CheckError& e) {
        VEXSIM_CHECK_MSG(false, "corrupt shard file " << f << ": "
                                                      << e.what());
      }
    }

    const harness::MergeOutcome merged = harness::merge_shards(docs, files);
    if (merged.complete) {
      write_json_file(out, merged.merged);
      std::cout << "vexmerge: merged " << merged.total << " points from "
                << files.size() << " shard file(s) -> " << out << "\n";
      return 0;
    }
    write_json_file(resume_path, merged.resume);
    std::cerr << "vexmerge: incomplete: " << merged.present << "/"
              << merged.total
              << " points present; resume manifest (missing points and their "
                 "owning shards) -> "
              << resume_path << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "vexmerge: error: " << e.what() << "\n";
    return 2;
  }
}
