// MetricsRegistry: latency histograms, queue gauges and invocation counts.
//
// The paper's §4 argument is quantitative, and Stats makes the totals
// countable — but totals cannot say *which* operation spent the time or
// which buffer backed up. The registry attributes them: a fixed-bucket log2
// histogram of virtual-tick invocation latency per operation name, a
// depth/high-water gauge per instrumented queue (PassiveBuffer faces,
// StreamReader prefetch buffers, StreamServer work-ahead buffers), and an
// invocation count per target Eject.
//
// Like the tracer, the registry is an optional kernel hook: when none is
// installed (Kernel::set_metrics(nullptr), the default) the kernel and the
// stream components skip every recording site behind a single null check,
// preserving the tracer-unset fast path.
//
// Each of the four figures (latency, queue gauges, flow counters,
// invocation counts) is one ShardedTable (shard_tables.h): the hooks record
// into their home shard's map, and the reads combine the maps through the
// figure's combine rule.
#ifndef SRC_EDEN_METRICS_H_
#define SRC_EDEN_METRICS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/eden/shard_tables.h"
#include "src/eden/stats.h"
#include "src/eden/stream_facts.h"
#include "src/eden/uid.h"
#include "src/eden/value.h"

namespace eden {

// A histogram with 32 fixed power-of-two buckets: bucket 0 holds the value
// 0, bucket b (b >= 1) holds values in [2^(b-1), 2^b - 1], and the last
// bucket absorbs everything above 2^30. Recording is O(1) with no
// allocation; exact min/max/sum ride along so percentile estimates can be
// clamped to observed bounds.
class Log2Histogram {
 public:
  static constexpr size_t kBucketCount = 32;

  void Record(uint64_t value);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double Mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  uint64_t bucket(size_t index) const {
    return index < kBucketCount ? buckets_[index] : 0;
  }

  // Bucket geometry (static so tests can assert the math directly).
  static size_t BucketOf(uint64_t value);
  static uint64_t BucketLow(size_t index);   // smallest value in the bucket
  static uint64_t BucketHigh(size_t index);  // largest value in the bucket

  // The p-th percentile (p in [0, 100]) of the recorded values, linearly
  // interpolated within the winning bucket and clamped to [min, max]. When
  // all samples fall in one bucket the interpolation range tightens to the
  // observed [min, max] — exact when min == max. Returns 0 when empty.
  uint64_t Percentile(double p) const;

  // Bucketwise accumulation of `other` into this histogram: counts, sums and
  // buckets add exactly; min/max combine exactly (an empty side contributes
  // nothing). Merging disjoint windows reproduces the histogram a single
  // accumulation over both would have built.
  void Merge(const Log2Histogram& other);

  // The windowed delta of two cumulative snapshots: `*this` must be a later
  // snapshot of the same accumulation as `earlier` (every bucket, the count
  // and the sum of `earlier` are <= ours). Buckets, count and sum subtract
  // exactly. The delta's min/max are NOT recoverable from cumulative state;
  // they are approximated by the bounds of the delta's outermost non-empty
  // buckets, clamped to this snapshot's observed [min, max] — tight enough
  // for percentile clamping, and deterministic.
  Log2Histogram Subtract(const Log2Histogram& earlier) const;

  // {count, sum, min, max, mean, p50, p90, p99, buckets: [...]} — buckets
  // are trimmed to the last non-empty one.
  Value ToValue() const;

 private:
  uint64_t buckets_[kBucketCount] = {};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

// The component a name in kQueueComponentNames stands for.
std::optional<QueueComponent> QueueComponentNamed(std::string_view name);

// One instrumented queue: its kind and the Eject that owns it.
using QueueKey = std::pair<QueueComponent, Uid>;

class MetricsRegistry {
 public:
  struct QueueGauge {
    size_t depth = 0;       // most recent sample
    size_t high_water = 0;  // largest sample ever
    uint64_t samples = 0;

    // Folds in a later record of the same queue.
    void Merge(const QueueGauge& later) {
      depth = later.depth;
      high_water = later.high_water > high_water ? later.high_water : high_water;
      samples += later.samples;
    }
  };

  struct FlowCounters {
    uint64_t hiwat_hits = 0;
    uint64_t putbacks = 0;
    uint64_t band_overtakes = 0;

    FlowCounters& operator+=(const FlowCounters& o) {
      hiwat_hits += o.hiwat_hits;
      putbacks += o.putbacks;
      band_overtakes += o.band_overtakes;
      return *this;
    }
  };

  // ---- Recording hooks (kernel and stream components; callers gate on the
  // registry pointer, so these assume they are wanted). `shard` is the
  // record's home shard (Kernel::HomeShard; 0 outside a kernel). A hook
  // writes only that shard's tables and takes no lock, so shard workers
  // record side by side. The tables stay where they are: no run folds them.
  // Every quantity is a commutative aggregate (histogram sums, counts,
  // maxima) or, for a queue's depth, a last value that only its own home
  // shard records, so what the reads combine is the same at any shard count.
  void RecordLatency(const std::string& op, uint64_t ticks, int shard = 0) {
    latency_.Shard(shard)[op].Record(ticks);
  }
  void CountInvocation(const Uid& target, int shard = 0) {
    invocations_.Shard(shard)[target]++;
  }
  void RecordQueueDepth(QueueComponent component, const Uid& owner,
                        size_t depth, int shard = 0) {
    queues_.Shard(shard)[{component, owner}].Merge({depth, depth, 1});
  }
  void CountFlowEvent(QueueComponent component, const Uid& owner,
                      FlowEvent event, int shard = 0) {
    FlowCounters& counters = flow_.Shard(shard)[{component, owner}];
    switch (event) {
      case FlowEvent::kHiwatHit: counters.hiwat_hits++; break;
      case FlowEvent::kPutBack: counters.putbacks++; break;
      case FlowEvent::kBandOvertake: counters.band_overtakes++; break;
    }
  }

  // Folds every shard's tables into the base and keeps at least `shards`
  // table slots, so the hooks of a run on that many workers never grow the
  // slot vector. The kernel calls it when it re-partitions (set_shards),
  // which moves queues to new home shards, and when it installs the
  // registry; nothing else folds.
  void Fold(int shards = 1);

  // Published by the kernel after each run, one entry per shard, replacing
  // every previous entry, so the registry always reflects the most recent
  // run (and a re-partition to fewer shards leaves no stale rows).
  void RecordShardCounters(std::vector<ShardCounters> counters) {
    shards_ = std::move(counters);
  }

  // Pretty names for snapshot keys (defaults to the short UID).
  void Label(const Uid& uid, std::string name) { labels_[uid] = std::move(name); }

  // ---- Introspection. A read combines the base and every shard's tables
  // without moving anything; it must not overlap a run (call it between
  // runs, or from a RunUntil predicate, which runs while every worker is
  // parked). A point lookup returns its key's combined value as of the
  // lookup, in a cache that keeps the pointer valid until Clear.
  const Log2Histogram* LatencyFor(std::string_view op) const;
  const QueueGauge* QueueFor(std::string_view component, const Uid& owner) const;
  const FlowCounters* FlowFor(std::string_view component, const Uid& owner) const;
  uint64_t InvocationsTo(const Uid& target) const;
  // Per-shard counters from the most recent run, ascending by shard index.
  std::vector<std::pair<int, ShardCounters>> ShardSnapshot() const;

  void Clear();

  // {"latency": {op: histogram...}, "queues": {"component/name": {depth,
  // high_water, samples}}, "flow": {"component/name": {hiwat_hits, putbacks,
  // band_overtakes}}, "invocations": {name: count}}. The "flow" section is
  // present only when at least one flow event was counted.
  Value Snapshot() const;
  std::string ToJson() const;
  // One line per metric, human-readable.
  std::string ToString() const;

 private:
  std::string NameOf(const Uid& uid) const;
  // "component/name", the snapshot key of a queue.
  std::string KeyName(const QueueKey& key) const;

  // Latency is keyed by a handful of operation names; the rest by queue or
  // Eject, tens of thousands of keys on a wide topology, so they hash, and
  // the reads sort.
  ShardedTable<std::map<std::string, Log2Histogram>, &Log2Histogram::Merge> latency_;
  ShardedTable<HashMap<QueueKey, QueueGauge>, &QueueGauge::Merge> queues_;
  ShardedTable<HashMap<QueueKey, FlowCounters>, &Add<FlowCounters>> flow_;
  ShardedTable<HashMap<Uid, uint64_t>, &Add<uint64_t>> invocations_;
  std::map<Uid, std::string> labels_;
  std::vector<ShardCounters> shards_;  // indexed by shard
};

}  // namespace eden

#endif  // SRC_EDEN_METRICS_H_
