#include "src/eden/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "src/eden/json.h"

namespace eden {

void Log2Histogram::Record(uint64_t value) {
  buckets_[BucketOf(value)]++;
  sum_ += value;
  min_ = count_ == 0 ? value : std::min(min_, value);
  max_ = std::max(max_, value);
  count_++;
}

size_t Log2Histogram::BucketOf(uint64_t value) {
  if (value == 0) {
    return 0;
  }
  return std::min<size_t>(kBucketCount - 1,
                          static_cast<size_t>(std::bit_width(value)));
}

uint64_t Log2Histogram::BucketLow(size_t index) {
  if (index == 0) {
    return 0;
  }
  return uint64_t{1} << (index - 1);
}

uint64_t Log2Histogram::BucketHigh(size_t index) {
  if (index == 0) {
    return 0;
  }
  if (index >= kBucketCount - 1) {
    return UINT64_MAX;
  }
  return (uint64_t{1} << index) - 1;
}

uint64_t Log2Histogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  p = std::clamp(p, 0.0, 100.0);
  // The rank of the sample we are after, 1-based.
  uint64_t rank = static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(count_)));
  rank = std::max<uint64_t>(rank, 1);
  uint64_t seen = 0;
  for (size_t b = 0; b < kBucketCount; ++b) {
    if (buckets_[b] == 0) {
      continue;
    }
    if (seen + buckets_[b] >= rank) {
      // Linear interpolation within the bucket's value range. When every
      // sample landed in this one bucket the observed [min, max] is a
      // tighter range than the bucket bounds — and when min == max the
      // answer is exact, not an interpolation artifact.
      double frac = static_cast<double>(rank - seen) /
                    static_cast<double>(buckets_[b]);
      uint64_t low = BucketLow(b);
      uint64_t high = std::min(BucketHigh(b), max_);
      if (buckets_[b] == count_) {
        low = min_;
        high = max_;
      }
      uint64_t value =
          low + static_cast<uint64_t>(frac * static_cast<double>(high - low));
      return std::clamp(value, min_, max_);
    }
    seen += buckets_[b];
  }
  return max_;
}

void Log2Histogram::Merge(const Log2Histogram& other) {
  if (other.count_ == 0) {
    return;
  }
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  for (size_t b = 0; b < kBucketCount; ++b) {
    buckets_[b] += other.buckets_[b];
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

Log2Histogram Log2Histogram::Subtract(const Log2Histogram& earlier) const {
  Log2Histogram delta;
  size_t lowest = kBucketCount;
  size_t highest = 0;
  for (size_t b = 0; b < kBucketCount; ++b) {
    delta.buckets_[b] = buckets_[b] - earlier.buckets_[b];
    if (delta.buckets_[b] > 0) {
      lowest = std::min(lowest, b);
      highest = b;
    }
  }
  delta.count_ = count_ - earlier.count_;
  delta.sum_ = sum_ - earlier.sum_;
  if (delta.count_ > 0) {
    // The delta's exact min/max are not recoverable from two cumulative
    // snapshots; bucket bounds clamped to the later snapshot's observed
    // range are the tightest deterministic approximation.
    delta.min_ = std::max(BucketLow(lowest), min_);
    delta.max_ = std::min(BucketHigh(highest), max_);
    delta.min_ = std::min(delta.min_, delta.max_);
  }
  return delta;
}

Value Log2Histogram::ToValue() const {
  Value v;
  v.Set("count", Value(count_));
  v.Set("sum", Value(sum_));
  v.Set("min", Value(min()));
  v.Set("max", Value(max_));
  v.Set("mean", Value(Mean()));
  v.Set("p50", Value(Percentile(50)));
  v.Set("p90", Value(Percentile(90)));
  v.Set("p99", Value(Percentile(99)));
  size_t last = 0;
  for (size_t b = 0; b < kBucketCount; ++b) {
    if (buckets_[b] > 0) {
      last = b;
    }
  }
  ValueList buckets;
  for (size_t b = 0; b <= last && count_ > 0; ++b) {
    buckets.push_back(Value(buckets_[b]));
  }
  v.Set("buckets", Value(std::move(buckets)));
  return v;
}

std::optional<QueueComponent> QueueComponentNamed(std::string_view name) {
  for (size_t id = 0; id < std::size(kQueueComponentNames); ++id) {
    if (kQueueComponentNames[id] == name) {
      return static_cast<QueueComponent>(id);
    }
  }
  return std::nullopt;
}

namespace {

// How two records of one key combine, oldest first.
void MergeLatency(Log2Histogram& into, const Log2Histogram& from) { into.Merge(from); }
void MergeGauge(MetricsRegistry::QueueGauge& into,
                const MetricsRegistry::QueueGauge& from) {
  into.depth = from.depth;
  into.high_water = std::max(into.high_water, from.high_water);
  into.samples += from.samples;
}
void MergeFlow(MetricsRegistry::FlowCounters& into,
               const MetricsRegistry::FlowCounters& from) {
  into.hiwat_hits += from.hiwat_hits;
  into.putbacks += from.putbacks;
  into.band_overtakes += from.band_overtakes;
}
void MergeCount(uint64_t& into, uint64_t from) { into += from; }

}  // namespace

void MetricsRegistry::Fold(int shards) {
  for (Tables& tables : tables_) {
    FoldInto(base_.latency, tables.latency, MergeLatency);
    FoldInto(base_.queues, tables.queues, MergeGauge);
    FoldInto(base_.flow, tables.flow, MergeFlow);
    FoldInto(base_.invocations, tables.invocations, MergeCount);
  }
  if (tables_.size() < static_cast<size_t>(shards)) {
    tables_.resize(static_cast<size_t>(shards));
  }
}

const Log2Histogram* MetricsRegistry::LatencyFor(std::string_view op) const {
  const std::string key(op);
  auto combined = CombinedAt(base_, tables_, &Tables::latency, key, MergeLatency);
  return combined ? &(lookups_.latency[key] = *combined) : nullptr;
}

const MetricsRegistry::QueueGauge* MetricsRegistry::QueueFor(
    std::string_view component, const Uid& owner) const {
  std::optional<QueueComponent> id = QueueComponentNamed(component);
  if (!id) {
    return nullptr;
  }
  const QueueKey key{*id, owner};
  auto combined = CombinedAt(base_, tables_, &Tables::queues, key, MergeGauge);
  return combined ? &(lookups_.queues[key] = *combined) : nullptr;
}

const MetricsRegistry::FlowCounters* MetricsRegistry::FlowFor(
    std::string_view component, const Uid& owner) const {
  std::optional<QueueComponent> id = QueueComponentNamed(component);
  if (!id) {
    return nullptr;
  }
  const QueueKey key{*id, owner};
  auto combined = CombinedAt(base_, tables_, &Tables::flow, key, MergeFlow);
  return combined ? &(lookups_.flow[key] = *combined) : nullptr;
}

uint64_t MetricsRegistry::InvocationsTo(const Uid& target) const {
  return CombinedAt(base_, tables_, &Tables::invocations, target, MergeCount).value_or(0);
}

std::vector<std::pair<int, ShardCounters>> MetricsRegistry::ShardSnapshot() const {
  return {shards_.begin(), shards_.end()};
}

void MetricsRegistry::Clear() {
  for (Tables& tables : tables_) {
    tables = Tables{};
  }
  base_ = Tables{};
  lookups_ = Tables{};
  shards_.clear();
}

std::string MetricsRegistry::NameOf(const Uid& uid) const {
  auto it = labels_.find(uid);
  return it != labels_.end() ? it->second : uid.Short();
}

std::string MetricsRegistry::KeyName(const QueueKey& key) const {
  return std::string(QueueComponentName(key.first)) + "/" + NameOf(key.second);
}

MetricsRegistry::Combined MetricsRegistry::Combine() const {
  return Combined{SortedUnion(base_, tables_, &Tables::latency, MergeLatency),
                  SortedUnion(base_, tables_, &Tables::queues, MergeGauge),
                  SortedUnion(base_, tables_, &Tables::flow, MergeFlow),
                  SortedUnion(base_, tables_, &Tables::invocations, MergeCount)};
}

Value MetricsRegistry::Snapshot() const {
  const Combined all = Combine();
  Value latency;
  for (const auto& [op, histogram] : all.latency) {
    latency.Set(op, histogram.ToValue());
  }
  Value queues;
  for (const auto& [key, gauge] : all.queues) {
    Value entry;
    entry.Set("depth", Value(static_cast<uint64_t>(gauge.depth)));
    entry.Set("high_water", Value(static_cast<uint64_t>(gauge.high_water)));
    entry.Set("samples", Value(gauge.samples));
    queues.Set(KeyName(key), std::move(entry));
  }
  Value flow;
  for (const auto& [key, counters] : all.flow) {
    Value entry;
    entry.Set("hiwat_hits", Value(counters.hiwat_hits));
    entry.Set("putbacks", Value(counters.putbacks));
    entry.Set("band_overtakes", Value(counters.band_overtakes));
    flow.Set(KeyName(key), std::move(entry));
  }
  Value invocations;
  for (const auto& [uid, count] : all.invocations) {
    invocations.Set(NameOf(uid), Value(count));
  }
  Value shards;
  for (const auto& [index, counters] : shards_) {
    Value entry;
    entry.Set("events_processed", Value(counters.events_processed));
    entry.Set("cross_shard_sends", Value(counters.cross_shard_sends));
    entry.Set("lookahead_stalls", Value(counters.lookahead_stalls));
    entry.Set("windows", Value(counters.windows));
    entry.Set("mailbox_high_water", Value(counters.mailbox_high_water));
    entry.Set("mailbox_overflows", Value(counters.mailbox_overflows));
    shards.Set("shard" + std::to_string(index), std::move(entry));
  }
  Value snapshot;
  snapshot.Set("latency", latency.is_nil() ? Value(ValueMap{}) : std::move(latency));
  snapshot.Set("queues", queues.is_nil() ? Value(ValueMap{}) : std::move(queues));
  if (!flow.is_nil()) {
    snapshot.Set("flow", std::move(flow));
  }
  snapshot.Set("invocations",
               invocations.is_nil() ? Value(ValueMap{}) : std::move(invocations));
  if (!shards.is_nil()) {
    snapshot.Set("shards", std::move(shards));
  }
  return snapshot;
}

std::string MetricsRegistry::ToJson() const { return ValueToJson(Snapshot()); }

std::string MetricsRegistry::ToString() const {
  const Combined all = Combine();
  std::string out;
  char buf[256];
  for (const auto& [op, h] : all.latency) {
    std::snprintf(buf, sizeof(buf),
                  "latency %-16s count=%llu mean=%.1f p50=%llu p90=%llu "
                  "p99=%llu max=%llu\n",
                  op.c_str(), static_cast<unsigned long long>(h.count()),
                  h.Mean(), static_cast<unsigned long long>(h.Percentile(50)),
                  static_cast<unsigned long long>(h.Percentile(90)),
                  static_cast<unsigned long long>(h.Percentile(99)),
                  static_cast<unsigned long long>(h.max()));
    out += buf;
  }
  for (const auto& [key, gauge] : all.queues) {
    std::snprintf(buf, sizeof(buf),
                  "queue   %-28s depth=%zu high_water=%zu samples=%llu\n",
                  KeyName(key).c_str(), gauge.depth,
                  gauge.high_water, static_cast<unsigned long long>(gauge.samples));
    out += buf;
  }
  for (const auto& [key, counters] : all.flow) {
    std::snprintf(buf, sizeof(buf),
                  "flow    %-28s hiwat_hits=%llu putbacks=%llu "
                  "band_overtakes=%llu\n",
                  KeyName(key).c_str(),
                  static_cast<unsigned long long>(counters.hiwat_hits),
                  static_cast<unsigned long long>(counters.putbacks),
                  static_cast<unsigned long long>(counters.band_overtakes));
    out += buf;
  }
  for (const auto& [uid, count] : all.invocations) {
    std::snprintf(buf, sizeof(buf), "invoked %-16s count=%llu\n",
                  NameOf(uid).c_str(), static_cast<unsigned long long>(count));
    out += buf;
  }
  for (const auto& [index, c] : shards_) {
    std::snprintf(buf, sizeof(buf),
                  "shard   %-4d events=%llu cross_sends=%llu stalls=%llu "
                  "windows=%llu mbox_hiwat=%llu overflows=%llu\n",
                  index, static_cast<unsigned long long>(c.events_processed),
                  static_cast<unsigned long long>(c.cross_shard_sends),
                  static_cast<unsigned long long>(c.lookahead_stalls),
                  static_cast<unsigned long long>(c.windows),
                  static_cast<unsigned long long>(c.mailbox_high_water),
                  static_cast<unsigned long long>(c.mailbox_overflows));
    out += buf;
  }
  if (out.empty()) {
    out = "(no metrics recorded)\n";
  }
  return out;
}

}  // namespace eden
