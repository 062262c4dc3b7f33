// Bench regression gate: diffs the counters of a BENCH_*.json run against
// its checked-in baseline.
//
//   bench_compare BASELINE CURRENT
//
// The repo's counters (inv_per_datum, msgs_per_datum, ...) are deterministic
// identities from the paper, so any drift is a claim change that needs an
// explicit re-baseline. Host times are never compared; perfbench owns them.
// Exits 0 when nothing regressed, 1 on any regression, 2 on bad usage or
// unreadable/unparseable input — input problems always name the offending
// path on stderr, so a CI log never shows a bare nonzero exit.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "src/eden/analysis.h"
#include "src/eden/json.h"
#include "src/eden/value.h"

namespace {

namespace fs = std::filesystem;

bool ReadFile(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

bool LoadJson(const fs::path& path, eden::Value* out) {
  if (!fs::exists(path)) {
    std::fprintf(stderr, "bench_compare: no such file: %s\n", path.c_str());
    return false;
  }
  std::string text;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "bench_compare: cannot read %s\n", path.c_str());
    return false;
  }
  std::string error;
  std::optional<eden::Value> parsed = eden::JsonParse(text, &error);
  if (!parsed) {
    std::fprintf(stderr, "bench_compare: cannot parse %s: %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  *out = std::move(*parsed);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: bench_compare BASELINE CURRENT\n");
    return 2;
  }
  eden::Value base, cur;
  if (!LoadJson(argv[1], &base) || !LoadJson(argv[2], &cur)) {
    return 2;
  }
  eden::BenchComparison cmp = eden::CompareBenchRuns(base, cur);
  std::printf("%s", cmp.ToString().c_str());
  return cmp.ok() ? 0 : 1;
}
