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

void MetricsRegistry::Fold(int shards) {
  latency_.Fold(shards);
  queues_.Fold(shards);
  flow_.Fold(shards);
  invocations_.Fold(shards);
}

const Log2Histogram* MetricsRegistry::LatencyFor(std::string_view op) const {
  return latency_.Find(std::string(op));
}

const MetricsRegistry::QueueGauge* MetricsRegistry::QueueFor(
    std::string_view component, const Uid& owner) const {
  std::optional<QueueComponent> id = QueueComponentNamed(component);
  return id ? queues_.Find({*id, owner}) : nullptr;
}

const MetricsRegistry::FlowCounters* MetricsRegistry::FlowFor(
    std::string_view component, const Uid& owner) const {
  std::optional<QueueComponent> id = QueueComponentNamed(component);
  return id ? flow_.Find({*id, owner}) : nullptr;
}

uint64_t MetricsRegistry::InvocationsTo(const Uid& target) const {
  const uint64_t* count = invocations_.Find(target);
  return count != nullptr ? *count : 0;
}

std::vector<std::pair<int, ShardCounters>> MetricsRegistry::ShardSnapshot() const {
  std::vector<std::pair<int, ShardCounters>> out;
  for (size_t i = 0; i < shards_.size(); ++i) {
    out.emplace_back(static_cast<int>(i), shards_[i]);
  }
  return out;
}

void MetricsRegistry::Clear() {
  latency_.Clear();
  queues_.Clear();
  flow_.Clear();
  invocations_.Clear();
  shards_.clear();
}

std::string MetricsRegistry::NameOf(const Uid& uid) const {
  auto it = labels_.find(uid);
  return it != labels_.end() ? it->second : uid.Short();
}

std::string MetricsRegistry::KeyName(const QueueKey& key) const {
  return std::string(QueueComponentName(key.first)) + "/" + NameOf(key.second);
}

Value MetricsRegistry::Snapshot() const {
  Value latency;
  for (const auto& [op, histogram] : latency_.Sorted()) {
    latency.Set(op, histogram.ToValue());
  }
  Value queues;
  for (const auto& [key, gauge] : queues_.Sorted()) {
    Value entry;
    entry.Set("depth", Value(static_cast<uint64_t>(gauge.depth)));
    entry.Set("high_water", Value(static_cast<uint64_t>(gauge.high_water)));
    entry.Set("samples", Value(gauge.samples));
    queues.Set(KeyName(key), std::move(entry));
  }
  Value flow;
  for (const auto& [key, counters] : flow_.Sorted()) {
    Value entry;
    entry.Set("hiwat_hits", Value(counters.hiwat_hits));
    entry.Set("putbacks", Value(counters.putbacks));
    entry.Set("band_overtakes", Value(counters.band_overtakes));
    flow.Set(KeyName(key), std::move(entry));
  }
  Value invocations;
  for (const auto& [uid, count] : invocations_.Sorted()) {
    invocations.Set(NameOf(uid), Value(count));
  }
  Value shards;
  for (const auto& [index, counters] : ShardSnapshot()) {
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
  std::string out;
  char buf[256];
  for (const auto& [op, h] : latency_.Sorted()) {
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
  for (const auto& [key, gauge] : queues_.Sorted()) {
    std::snprintf(buf, sizeof(buf),
                  "queue   %-28s depth=%zu high_water=%zu samples=%llu\n",
                  KeyName(key).c_str(), gauge.depth,
                  gauge.high_water, static_cast<unsigned long long>(gauge.samples));
    out += buf;
  }
  for (const auto& [key, counters] : flow_.Sorted()) {
    std::snprintf(buf, sizeof(buf),
                  "flow    %-28s hiwat_hits=%llu putbacks=%llu "
                  "band_overtakes=%llu\n",
                  KeyName(key).c_str(),
                  static_cast<unsigned long long>(counters.hiwat_hits),
                  static_cast<unsigned long long>(counters.putbacks),
                  static_cast<unsigned long long>(counters.band_overtakes));
    out += buf;
  }
  for (const auto& [uid, count] : invocations_.Sorted()) {
    std::snprintf(buf, sizeof(buf), "invoked %-16s count=%llu\n",
                  NameOf(uid).c_str(), static_cast<unsigned long long>(count));
    out += buf;
  }
  for (const auto& [index, c] : ShardSnapshot()) {
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
