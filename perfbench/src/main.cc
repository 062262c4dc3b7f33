// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones (see
// WORKLOADS.md). Human-readable lines come first; the last line of standard
// output is one JSON object {"correct", "attempted", "failed", "metrics"}.
// With --out-dir, the full result (host facts included) and the traced
// run's spans are written there too.
#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench.h"
#include "src/eden/json.h"

namespace perfbench {
namespace {

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\nworkloads:");
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

RunArgs ParseArgs(int argc, char** argv) {
  RunArgs args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--out-dir") {
        args.out_dir = value;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      Usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!KnownWorkload(args.workload)) {
    Usage("unknown workload '" + args.workload + "'");
  }
  if (!(args.seconds > 0 && args.seconds <= 600)) {
    Usage("--seconds must be in (0, 600]");
  }
  return args;
}

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return CPU_COUNT(&set);
  }
  return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

// The facts two results must share before their timings may be compared.
Value HostFacts(const RunArgs& args) {
  Value host;
  host.Set("cpus", Value(static_cast<int64_t>(UsableCpus())));
  host.Set("build_type", Value(PERFBENCH_BUILD_TYPE));
  host.Set("optimized", Value(kOptimized));
  host.Set("compiler", Value(PERFBENCH_COMPILER));
  host.Set("shards", Value(static_cast<int64_t>(WorkloadShards(args.workload))));
  return host;
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string ResultLine(const Outcome& out) {
  std::string line = "{\"correct\": ";
  line += out.failed == 0 && out.attempted > 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    line += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + Number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  return line + "}}";
}

void WriteResultFile(const RunArgs& args, const Value& host, const Outcome& out,
                     const std::string& line) {
  Value result;
  result.Set("host", host);
  result.Set("workload", Value(args.workload));
  result.Set("seed", Value(static_cast<int64_t>(args.seed)));
  result.Set("seconds", Value(args.seconds));
  result.Set("trace", Value(args.trace));
  result.Set("details", out.details);
  ValueList notes(out.notes.begin(), out.notes.end());
  result.Set("notes", Value(std::move(notes)));
  std::string path = args.out_dir + "/result-" + args.workload + "-seed" +
                     std::to_string(args.seed) + "-trace" + (args.trace ? "1" : "0") +
                     ".json";
  std::ofstream file(path);
  // The summary line is already strict JSON; splice it in beside the rest.
  std::string body = eden::ValueToJson(result);
  file << body.substr(0, body.size() - 1) << ",\"result\":" << line << "}\n";
}

int Main(int argc, char** argv) {
  RunArgs args = ParseArgs(argc, argv);
  if (!kOptimized) {
    std::fprintf(stderr, "perfbench: refusing to time an unoptimised build\n");
    return 3;
  }
  Value host = HostFacts(args);
  std::printf("host: %s\n", eden::ValueToJson(host).c_str());
  std::printf("workload: %s  seed: %llu  seconds: %g  trace: %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::fflush(stdout);

  Outcome out = args.trace ? TraceWorkload(args) : MeasureWorkload(args);

  for (const std::string& note : out.notes) {
    std::printf("  %s\n", note.c_str());
  }
  for (const Metric& m : out.metrics) {
    std::printf("%-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  double failed_frac =
      out.attempted > 0 ? static_cast<double>(out.failed) / static_cast<double>(out.attempted)
                        : 1.0;
  std::printf("%-36s %16.6g ratio (%llu of %llu chains)\n", "failed_frac", failed_frac,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (const std::string& failure : out.failures) {
    std::printf("  FAILED: %s\n", failure.c_str());
  }
  std::string line = ResultLine(out);
  if (!args.out_dir.empty()) {
    WriteResultFile(args, host, out, line);
  }
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
