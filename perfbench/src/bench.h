// Shared pieces of the repository benchmark: host clocks, sample summaries,
// seeded inputs, the span log of the traced run, and the workload/ladder
// entry points main.cc dispatches to.
//
// The benchmark measures the libraries from outside: every timing wraps a
// call into a public API (Kernel, BuildPipeline, Transform::OnItem, the
// stream primitives, the Kernel::set_* hooks). Nothing here reaches into
// the kernel's internals.
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/transform.h"
#include "src/eden/random.h"
#include "src/eden/value.h"

namespace perfbench {

using eden::Value;
using eden::ValueList;

// ---------------------------------------------------------------- clocks
inline uint64_t WallNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Process CPU time (user + sys, every thread).
inline uint64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

// Host time of a fixed reference task that shares no code with the system
// under test: a miniature discrete-event loop (a heap of events dispatched
// through function pointers, an ordered registry keyed by 128-bit ids, a
// hash map of epochs, string and payload copies), the mix the kernel's
// per-event path is made of. The best of three short passes, timed next to
// every run phase, says how fast the host is running at that moment.
uint64_t ReferenceTaskNs();
// The reference task's time on the nominal host. End-to-end timings are
// reported scaled to it, so host-speed drift between runs cancels out.
inline constexpr double kNominalReferenceNs = 2.5e6;

// ------------------------------------------------------------- summaries
// q in [0, 1], linear interpolation between closest ranks; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

// A timing summarised the way every result reports it: the median, the
// sample count, and the highest of p90/p99/p99.9 that still has at least
// ten samples beyond it (none when fewer than 100 samples).
struct Summary {
  double median = 0;
  size_t samples = 0;
  std::string tail_name;  // "p90", "p99", "p99.9" or "" when unsupported
  double tail = 0;
};
Summary Summarize(const std::vector<double>& values);

// ---------------------------------------------------------------- inputs
// Mixes a workload seed with a stream index into an independent seed.
inline uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  return x == 0 ? 1 : x;
}

// Fortran-card-shaped lines, the same shape as the figure benches' input:
// a quarter are comment cards ("C "), the rest indented assignments.
inline ValueList BenchLines(int n, uint64_t seed) {
  eden::Rng rng(seed);
  ValueList items;
  items.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::string line = rng.Chance(0.25) ? "C " : "      ";
    line += rng.Word(3, 10) + " = " + rng.Word(1, 6);
    items.emplace_back(std::move(line));
  }
  return items;
}

// Runs `input` through fresh instances of `chain` in a plain loop, outside
// any kernel: the reference every sink's output is checked against.
ValueList ApplyChain(const std::vector<eden::TransformFactory>& chain,
                     const ValueList& input);

// ------------------------------------------------------------ trace spans
enum class SpanKind : uint8_t { kBuild, kRun, kStep, kOnItem, kOnEnd };
const char* SpanKindName(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::kStep;
  uint32_t parent = 0;  // 1-based index of the enclosing span; 0 = root
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

// In-memory span store for the traced run; written out once at the end.
// Bounded: spans past the cap are counted, not kept.
class SpanLog {
 public:
  explicit SpanLog(size_t cap) : cap_(cap) {}
  // Returns the span's 1-based id, or 0 once the log is full.
  uint32_t Add(const Span& span) {
    if (spans_.size() >= cap_) {
      ++dropped_;
      return 0;
    }
    spans_.push_back(span);
    return static_cast<uint32_t>(spans_.size());
  }
  void SetEnd(uint32_t id, uint64_t end_ns) {
    if (id != 0) {
      spans_[id - 1].end_ns = end_ns;
    }
  }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }
  bool WriteJsonLines(const std::string& path) const;

 private:
  size_t cap_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

// Host time spent inside Transform::OnItem/OnEnd, fed by TimedTransform.
// The totals are atomics because sharded runs call filters from worker
// threads; the per-step child time and the span log are per thread.
struct FilterClock {
  std::atomic<uint64_t> item_ns{0};
  std::atomic<uint64_t> items{0};
  std::atomic<uint64_t> end_ns{0};
};

// The span the calling thread is inside, for the traced Step loop: filter
// calls made while it is set are logged as its children, and their time is
// added to `child_ns` so the step's self time can be taken.
struct StepScope {
  SpanLog* log = nullptr;
  uint32_t span = 0;
  uint64_t child_ns = 0;
};
StepScope& CurrentStep();

// Wraps every factory so the transforms it makes time their own calls.
std::vector<eden::TransformFactory> Timed(const std::vector<eden::TransformFactory>& chain,
                                          FilterClock* clock);

// --------------------------------------------------------------- results
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  uint64_t attempted = 0;  // chains checked
  uint64_t failed = 0;     // chains whose output or run failed a check
  std::vector<std::string> failures;  // first few reasons, for the log
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // human-readable lines (sample counts...)
  Value details;                   // everything, for the result file
};

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // result and span files; empty = none written
};

// True when `name` is one of the benchmark's workloads.
bool KnownWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();
int WorkloadShards(const std::string& name);

// The measured (untraced) run: end-to-end metrics only.
Outcome MeasureWorkload(const RunArgs& args);
// The traced run: per-layer metrics, the ladder, instrument reruns.
Outcome TraceWorkload(const RunArgs& args);

// ------------------------------------------------------------ cost ladder
struct Ladder {
  double null_event_ns = 0;
  double resume_ns = 0;
  double invoke_local_ns = 0;
  double invoke_remote_ns = 0;
  double invoke_cross_shard_ns = 0;
  double transfer_item_ns = 0;
  double push_item_ns = 0;
  double on_item_ns = 0;  // one filter call, averaged over the chain's filters
};
// Times each ladder row in isolation; `chain`/`input` feed the OnItem row.
// With `scale`, rows are host-speed scaled like the workload timings.
Ladder MeasureLadder(const std::vector<eden::TransformFactory>& chain, const ValueList& input,
                     bool scale);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
