// TelemetrySampler: windowed time-series over the merged observation stream.
//
// Every other observability surface (MetricsRegistry, PipelineDoctor,
// ShardProfiler) reports end-of-run aggregates — one number for a whole run
// says *that* an overload happened, never *when* or *who caused it*. The
// sampler closes fixed-cadence virtual-time windows over the kernel's
// observation stream and keeps, per series, a bounded ring of windowed
// *deltas* (counter increments, gauge last/max, latency histogram deltas via
// Log2Histogram::Subtract), so "queue q3 crossed hiwat at t=412ms and never
// drained" is answerable after the fact in bounded memory.
//
// Hot keys at large fan-out are tracked by a Space-Saving top-K sketch
// (Metwally, Agrawal, El Abbadi 2005): per-node invocation counts and
// per-queue hiwat hits surface the hottest stage and the slowest consumer in
// O(K) memory regardless of how many nodes exist. Any key whose true count
// exceeds total/K is guaranteed present, and a reported count overestimates
// the true one by at most its per-entry `error` (itself <= total/K).
//
// Determinism: the sampler is fed from the kernel's *merged* observation
// stream — sequential execution, or the single-threaded window-barrier
// completion of a sharded run (see Kernel::FlushObservations) — in an order
// that is byte-identical at any shard count, with non-decreasing virtual
// timestamps. Windows are closed purely from arriving observation
// timestamps (an observation at tick t first closes every window ending at
// or before t), so the series, sketches and JSON export are byte-identical
// at shards {1,2,4,8}.
//
// Threading contract: every entry point is reached single-threaded (event
// execution, or the barrier completion lambda with all shard workers
// parked), so the sampler takes NO lock. Reads are for quiescent moments —
// between runs, not during one. Like the tracer, it is an optional kernel
// hook: Kernel::set_telemetry(nullptr) (the default) costs one pointer test
// per site.
#ifndef SRC_EDEN_TELEMETRY_H_
#define SRC_EDEN_TELEMETRY_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/eden/clock.h"
#include "src/eden/message.h"
#include "src/eden/metrics.h"
#include "src/eden/trace.h"
#include "src/eden/uid.h"
#include "src/eden/value.h"

namespace eden {

class SloEngine;

// Space-Saving heavy-hitter sketch: at most `capacity` monitored keys, in a
// flat array. A hit on a monitored key increments its count; a hit on an
// unmonitored key with the array full overwrites the minimum-count entry
// (ties broken towards the smallest key, for determinism) and inherits its
// count as the new entry's overestimation `error`.
template <typename Key>
class SpaceSavingSketch {
 public:
  struct Entry {
    Key key{};
    uint64_t count = 0;  // overestimates the true count by at most `error`
    uint64_t error = 0;
  };

  explicit SpaceSavingSketch(size_t capacity = 8)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void Hit(const Key& key) {
    total_++;
    Entry* min = nullptr;
    for (Entry& entry : table_) {
      if (entry.key == key) {
        entry.count++;
        return;
      }
      if (min == nullptr || entry.count < min->count ||
          (entry.count == min->count && entry.key < min->key)) {
        min = &entry;
      }
    }
    if (table_.size() < capacity_) {
      table_.push_back(Entry{key, 1, 0});
      return;
    }
    *min = Entry{key, min->count + 1, min->count};
  }

  // Descending count; ties ascending key. Size <= capacity.
  std::vector<Entry> TopK() const {
    std::vector<Entry> out = table_;
    std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
      return a.count != b.count ? a.count > b.count : a.key < b.key;
    });
    return out;
  }

  uint64_t total() const { return total_; }
  size_t capacity() const { return capacity_; }

  void Reset(size_t capacity) {
    capacity_ = capacity == 0 ? 1 : capacity;
    table_.clear();
    total_ = 0;
  }

 private:
  size_t capacity_;
  uint64_t total_ = 0;
  std::vector<Entry> table_;
};

class TelemetrySampler {
 public:
  struct Options {
    Tick cadence = 1000;          // virtual ticks (µs) per window
    size_t ring_capacity = 128;   // closed windows retained per series
    size_t topk = 8;              // sketch capacity (monitored keys)
    size_t max_queue_series = 64; // distinct (component, queue) series kept
  };

  // Global event counters, one windowed series each. Series names (for SLO
  // rules and export) are the lower-case enum stems: "invoke", "reply",
  // "drop", "timeout", "crash", "hiwat", "putback", "overtake".
  enum Counter : size_t {
    kInvoke = 0,
    kReply,
    kDrop,
    kTimeout,
    kCrash,
    kHiwat,
    kPutBack,
    kOvertake,
    kCounterCount,
  };

  // One closed window of a queue-depth gauge.
  struct GaugeWindow {
    uint64_t last = 0;   // depth at window close (carried forward if quiet)
    uint64_t max = 0;    // largest depth sampled in the window
    uint64_t hiwat = 0;  // hiwat hits on this queue in the window
  };

  TelemetrySampler();  // default Options (gcc can't default-arg Options()
                       // while the enclosing class is still incomplete)
  explicit TelemetrySampler(Options options);

  // ---- Feed hooks (kernel only; single-threaded by the merged-stream
  // contract above, so no lock is taken).
  void OnTraceEvent(const TraceEvent& event);
  void OnQueueDepth(QueueComponent component, const Uid& owner, Tick at,
                    uint64_t depth);
  void OnFlowEvent(QueueComponent component, const Uid& owner, Tick at,
                   FlowEvent event);

  // Pretty names for queue owners and sketch keys (defaults to short UIDs).
  void Label(const Uid& uid, std::string name);

  // Drops all series, sketches and labels; keeps the options.
  void Clear();
  // Clear + reconfigure.
  void Reset(const Options& options);

  // An attached SLO engine is evaluated once per closed window, after the
  // window's deltas are pushed (slo.h; not owned).
  void set_slo(SloEngine* slo) { slo_ = slo; }
  SloEngine* slo() const { return slo_; }

  // ---- Window bookkeeping. Window w covers virtual time
  // [w*cadence, (w+1)*cadence); it closes when an observation at or past its
  // end arrives. The open window (and any trailing quiet gap) never closes —
  // reads include the open accumulation without mutating state.
  Tick cadence() const { return options_.cadence; }
  const Options& options() const { return options_; }
  int64_t windows_closed() const { return next_window_; }
  // Index of the window currently accumulating (== windows_closed()).
  int64_t open_window() const { return next_window_; }

  // ---- Series reads (quiescent).
  struct CounterView {
    std::string name;
    uint64_t total = 0;        // cumulative, unwindowed
    uint64_t open = 0;         // accumulation in the open window
    int64_t first_window = 0;  // absolute index of windows.front()
    std::vector<uint64_t> windows;  // per closed retained window
    uint64_t evicted = 0;      // windows dropped off the ring front
  };
  std::vector<CounterView> CounterSeries() const;

  struct QueueView {
    std::string component;
    std::string name;  // label (or short UID) of the owning queue
    int64_t first_window = 0;
    std::vector<GaugeWindow> windows;
    uint64_t evicted = 0;
    uint64_t last_depth = 0;      // most recent sample (open window)
    uint64_t open_max = 0;        // largest depth in the open window
    uint64_t open_hiwat = 0;      // hiwat hits in the open window
    uint64_t hiwat_total = 0;
    Tick first_hiwat_at = -1;     // -1 = never crossed
    int64_t first_hiwat_window = -1;
    Tick last_zero_at = -1;       // most recent tick the depth read 0
  };
  std::vector<QueueView> QueueSeries() const;

  struct TopEntry {
    std::string name;
    uint64_t count = 0;
    uint64_t error = 0;
  };
  std::vector<TopEntry> TopInvocations() const;  // hottest stages
  std::vector<TopEntry> TopHiwat() const;        // slowest consumers
  uint64_t invocation_total() const { return invoke_sketch_.total(); }
  uint64_t hiwat_total() const { return hiwat_sketch_.total(); }

  // The value of a named series in the most recently closed window, for SLO
  // evaluation. Grammar:
  //   count:<counter>          window delta of a global counter
  //   rate:<counter>           the same delta scaled to events per virtual
  //                            second (delta * 1e6 / cadence)
  //   queue:<component>/<name> depth at window close
  //   queue_max:<component>/<name>  largest depth in the window
  // Unknown series (or a queue series that did not exist yet) -> nullopt.
  std::optional<double> WindowValue(std::string_view series) const;

  // ---- Export. ToValue keys are sorted maps, so ValueToJson output is
  // byte-stable; ToString is the human `telemetry show` table.
  Value ToValue() const;
  std::string ToJson() const;
  std::string ToString() const;

  static const char* CounterName(size_t index);

 private:
  struct CounterState {
    uint64_t current = 0;  // open-window accumulation
    uint64_t total = 0;
    int64_t first_window = 0;
    std::deque<uint64_t> ring;
    uint64_t evicted = 0;
  };

  struct QueueState {
    uint64_t last = 0;
    uint64_t window_max = 0;
    uint64_t hiwat_current = 0;
    uint64_t hiwat_total = 0;
    int64_t first_window = 0;
    Tick first_hiwat_at = -1;
    int64_t first_hiwat_window = -1;
    Tick last_zero_at = -1;
    std::deque<GaugeWindow> ring;
    uint64_t evicted = 0;
  };

  // Closes every window ending at or before `at` (quiet gap windows push
  // zero counters and carried-forward gauges), leaving `at`'s window open.
  void Advance(Tick at);
  void CloseWindow();
  QueueState* QueueFor(QueueComponent component, const Uid& owner);
  std::string NameOf(const Uid& uid) const;

  Options options_;
  int64_t next_window_ = 0;  // lowest window index not yet closed
  CounterState counters_[kCounterCount];
  std::map<QueueKey, QueueState> queues_;
  uint64_t queue_series_dropped_ = 0;
  // In-flight invocations: id -> send tick. kReply records the round trip;
  // kDrop/kTimeout retire the entry (a dropped *reply* leaves a stale entry,
  // bounded by the run's drop count).
  std::unordered_map<InvocationId, Tick> inflight_;
  Log2Histogram latency_total_;
  Log2Histogram latency_prev_;  // snapshot at the last window close
  std::deque<Log2Histogram> latency_ring_;
  Log2Histogram latency_evicted_;
  int64_t latency_first_window_ = 0;
  SpaceSavingSketch<Uid> invoke_sketch_;
  SpaceSavingSketch<Uid> hiwat_sketch_;
  std::map<Uid, std::string> labels_;
  SloEngine* slo_ = nullptr;
};

}  // namespace eden

#endif  // SRC_EDEN_TELEMETRY_H_
