#include "src/eden/telemetry.h"

#include <cstdio>

#include "src/eden/json.h"
#include "src/eden/slo.h"

namespace eden {

TelemetrySampler::TelemetrySampler() : TelemetrySampler(Options()) {}

TelemetrySampler::TelemetrySampler(Options options)
    : options_(options),
      invoke_sketch_(options.topk),
      hiwat_sketch_(options.topk) {
  if (options_.cadence <= 0) {
    options_.cadence = 1000;
  }
  if (options_.ring_capacity == 0) {
    options_.ring_capacity = 1;
  }
}

const char* TelemetrySampler::CounterName(size_t index) {
  switch (index) {
    case kInvoke: return "invoke";
    case kReply: return "reply";
    case kDrop: return "drop";
    case kTimeout: return "timeout";
    case kCrash: return "crash";
    case kHiwat: return "hiwat";
    case kPutBack: return "putback";
    case kOvertake: return "overtake";
    default: return "?";
  }
}

void TelemetrySampler::Advance(Tick at) {
  int64_t window = at / options_.cadence;
  while (next_window_ < window) {
    CloseWindow();
  }
}

void TelemetrySampler::CloseWindow() {
  for (size_t i = 0; i < kCounterCount; ++i) {
    CounterState& c = counters_[i];
    c.ring.push_back(c.current);
    c.current = 0;
    if (c.ring.size() > options_.ring_capacity) {
      c.ring.pop_front();
      c.evicted++;
      c.first_window++;
    }
  }
  latency_ring_.push_back(latency_total_.Subtract(latency_prev_));
  latency_prev_ = latency_total_;
  if (latency_ring_.size() > options_.ring_capacity) {
    latency_evicted_.Merge(latency_ring_.front());
    latency_ring_.pop_front();
    latency_first_window_++;
  }
  for (auto& [key, q] : queues_) {
    q.ring.push_back(GaugeWindow{q.last, q.window_max, q.hiwat_current});
    q.window_max = q.last;  // gauges carry forward into the next window
    q.hiwat_current = 0;
    if (q.ring.size() > options_.ring_capacity) {
      q.ring.pop_front();
      q.evicted++;
      q.first_window++;
    }
  }
  int64_t closed = next_window_++;
  if (slo_ != nullptr) {
    slo_->OnWindowClosed(closed, (closed + 1) * options_.cadence, *this);
  }
}

void TelemetrySampler::OnTraceEvent(const TraceEvent& event) {
  Advance(event.at);
  switch (event.kind) {
    case TraceEvent::Kind::kInvoke: {
      CounterState& c = counters_[kInvoke];
      c.current++;
      c.total++;
      invoke_sketch_.Hit(event.to);
      inflight_[event.id] = event.at;
      break;
    }
    case TraceEvent::Kind::kReply: {
      CounterState& c = counters_[kReply];
      c.current++;
      c.total++;
      auto it = inflight_.find(event.id);
      if (it != inflight_.end()) {
        latency_total_.Record(static_cast<uint64_t>(event.at - it->second));
        inflight_.erase(it);
      }
      break;
    }
    case TraceEvent::Kind::kDrop: {
      CounterState& c = counters_[kDrop];
      c.current++;
      c.total++;
      inflight_.erase(event.id);
      break;
    }
    case TraceEvent::Kind::kTimeout: {
      CounterState& c = counters_[kTimeout];
      c.current++;
      c.total++;
      inflight_.erase(event.id);
      break;
    }
    case TraceEvent::Kind::kCrash: {
      CounterState& c = counters_[kCrash];
      c.current++;
      c.total++;
      break;
    }
    case TraceEvent::Kind::kViolation:
      // SLO firings are themselves kViolation events; counting them here
      // would let a firing rule feed its own series.
      break;
  }
}

TelemetrySampler::QueueState* TelemetrySampler::QueueFor(
    QueueComponent component, const Uid& owner) {
  QueueKey key{component, owner};
  auto it = queues_.find(key);
  if (it != queues_.end()) {
    return &it->second;
  }
  if (queues_.size() >= options_.max_queue_series) {
    // The merged stream touches queues in a deterministic order, so the kept
    // set is deterministic too; only the overflow count records the rest.
    queue_series_dropped_++;
    return nullptr;
  }
  QueueState state;
  state.first_window = next_window_;
  return &queues_.emplace(std::move(key), state).first->second;
}

void TelemetrySampler::OnQueueDepth(QueueComponent component,
                                    const Uid& owner, Tick at,
                                    uint64_t depth) {
  Advance(at);
  QueueState* q = QueueFor(component, owner);
  if (q == nullptr) {
    return;
  }
  q->last = depth;
  q->window_max = std::max(q->window_max, depth);
  if (depth == 0) {
    q->last_zero_at = at;
  }
}

void TelemetrySampler::OnFlowEvent(QueueComponent component, const Uid& owner,
                                   Tick at, FlowEvent event) {
  Advance(at);
  switch (event) {
    case FlowEvent::kHiwatHit: {
      CounterState& c = counters_[kHiwat];
      c.current++;
      c.total++;
      hiwat_sketch_.Hit(owner);
      QueueState* q = QueueFor(component, owner);
      if (q != nullptr) {
        q->hiwat_current++;
        q->hiwat_total++;
        if (q->first_hiwat_at < 0) {
          q->first_hiwat_at = at;
          q->first_hiwat_window = next_window_;
        }
      }
      break;
    }
    case FlowEvent::kPutBack: {
      CounterState& c = counters_[kPutBack];
      c.current++;
      c.total++;
      break;
    }
    case FlowEvent::kBandOvertake: {
      CounterState& c = counters_[kOvertake];
      c.current++;
      c.total++;
      break;
    }
  }
}

void TelemetrySampler::Label(const Uid& uid, std::string name) {
  labels_[uid] = std::move(name);
}

std::string TelemetrySampler::NameOf(const Uid& uid) const {
  auto it = labels_.find(uid);
  return it != labels_.end() ? it->second : uid.Short();
}

void TelemetrySampler::Clear() {
  next_window_ = 0;
  for (size_t i = 0; i < kCounterCount; ++i) {
    counters_[i] = CounterState{};
  }
  queues_.clear();
  queue_series_dropped_ = 0;
  inflight_.clear();
  latency_total_ = Log2Histogram{};
  latency_prev_ = Log2Histogram{};
  latency_ring_.clear();
  latency_evicted_ = Log2Histogram{};
  latency_first_window_ = 0;
  invoke_sketch_.Reset(options_.topk);
  hiwat_sketch_.Reset(options_.topk);
  labels_.clear();
}

void TelemetrySampler::Reset(const Options& options) {
  options_ = options;
  if (options_.cadence <= 0) {
    options_.cadence = 1000;
  }
  if (options_.ring_capacity == 0) {
    options_.ring_capacity = 1;
  }
  Clear();
}

std::vector<TelemetrySampler::CounterView> TelemetrySampler::CounterSeries()
    const {
  std::vector<CounterView> out;
  out.reserve(kCounterCount);
  for (size_t i = 0; i < kCounterCount; ++i) {
    const CounterState& c = counters_[i];
    CounterView view;
    view.name = CounterName(i);
    view.total = c.total;
    view.open = c.current;
    view.first_window = c.first_window;
    view.windows.assign(c.ring.begin(), c.ring.end());
    view.evicted = c.evicted;
    out.push_back(std::move(view));
  }
  return out;
}

std::vector<TelemetrySampler::QueueView> TelemetrySampler::QueueSeries() const {
  std::vector<QueueView> out;
  out.reserve(queues_.size());
  for (const auto& [key, q] : queues_) {
    QueueView view;
    view.component = std::string(QueueComponentName(key.first));
    view.name = NameOf(key.second);
    view.first_window = q.first_window;
    view.windows.assign(q.ring.begin(), q.ring.end());
    view.evicted = q.evicted;
    view.last_depth = q.last;
    view.open_max = q.window_max;
    view.open_hiwat = q.hiwat_current;
    view.hiwat_total = q.hiwat_total;
    view.first_hiwat_at = q.first_hiwat_at;
    view.first_hiwat_window = q.first_hiwat_window;
    view.last_zero_at = q.last_zero_at;
    out.push_back(std::move(view));
  }
  return out;
}

std::vector<TelemetrySampler::TopEntry> TelemetrySampler::TopInvocations()
    const {
  std::vector<TopEntry> out;
  for (const auto& entry : invoke_sketch_.TopK()) {
    out.push_back(TopEntry{NameOf(entry.key), entry.count, entry.error});
  }
  return out;
}

std::vector<TelemetrySampler::TopEntry> TelemetrySampler::TopHiwat() const {
  std::vector<TopEntry> out;
  for (const auto& entry : hiwat_sketch_.TopK()) {
    out.push_back(TopEntry{NameOf(entry.key), entry.count, entry.error});
  }
  return out;
}

std::optional<double> TelemetrySampler::WindowValue(
    std::string_view series) const {
  if (next_window_ == 0) {
    return std::nullopt;  // nothing closed yet
  }
  auto counter_index = [](std::string_view name) -> std::optional<size_t> {
    for (size_t i = 0; i < kCounterCount; ++i) {
      if (name == CounterName(i)) {
        return i;
      }
    }
    return std::nullopt;
  };
  auto find_queue = [this](std::string_view rest) -> const QueueState* {
    size_t slash = rest.find('/');
    if (slash == std::string_view::npos) {
      return nullptr;
    }
    std::string_view component = rest.substr(0, slash);
    std::string_view name = rest.substr(slash + 1);
    for (const auto& [key, q] : queues_) {
      if (QueueComponentName(key.first) == component &&
          NameOf(key.second) == name) {
        return &q;
      }
    }
    return nullptr;
  };
  if (series.starts_with("count:") || series.starts_with("rate:")) {
    auto index = counter_index(series.substr(series.find(':') + 1));
    if (!index.has_value()) {
      return std::nullopt;
    }
    const CounterState& c = counters_[*index];
    if (c.ring.empty()) {
      return std::nullopt;
    }
    double delta = static_cast<double>(c.ring.back());
    return series.starts_with("rate:")
               ? delta * 1e6 / static_cast<double>(options_.cadence)
               : delta;
  }
  if (series.starts_with("queue:")) {
    const QueueState* q = find_queue(series.substr(6));
    if (q == nullptr || q->ring.empty()) {
      return std::nullopt;
    }
    return static_cast<double>(q->ring.back().last);
  }
  if (series.starts_with("queue_max:")) {
    const QueueState* q = find_queue(series.substr(10));
    if (q == nullptr || q->ring.empty()) {
      return std::nullopt;
    }
    return static_cast<double>(q->ring.back().max);
  }
  return std::nullopt;
}

Value TelemetrySampler::ToValue() const {
  Value v;
  v.Set("cadence", Value(static_cast<int64_t>(options_.cadence)));
  v.Set("windows_closed", Value(next_window_));
  Value counters;
  for (const CounterView& c : CounterSeries()) {
    Value entry;
    entry.Set("total", Value(c.total));
    entry.Set("open", Value(c.open));
    entry.Set("first_window", Value(c.first_window));
    entry.Set("evicted", Value(c.evicted));
    ValueList windows;
    for (uint64_t n : c.windows) {
      windows.push_back(Value(n));
    }
    entry.Set("windows", Value(std::move(windows)));
    counters.Set(c.name, std::move(entry));
  }
  v.Set("counters", Value(std::move(counters)));
  Value latency;
  latency.Set("cumulative", latency_total_.ToValue());
  latency.Set("evicted", latency_evicted_.ToValue());
  latency.Set("first_window", Value(latency_first_window_));
  ValueList latency_windows;
  for (const Log2Histogram& h : latency_ring_) {
    Value w;
    w.Set("count", Value(h.count()));
    w.Set("sum", Value(h.sum()));
    w.Set("max", Value(h.max()));
    latency_windows.push_back(std::move(w));
  }
  latency.Set("windows", Value(std::move(latency_windows)));
  v.Set("latency", Value(std::move(latency)));
  Value queues;
  for (const QueueView& q : QueueSeries()) {
    Value entry;
    entry.Set("first_window", Value(q.first_window));
    entry.Set("evicted", Value(q.evicted));
    entry.Set("last_depth", Value(q.last_depth));
    entry.Set("hiwat_total", Value(q.hiwat_total));
    entry.Set("first_hiwat_at", Value(q.first_hiwat_at));
    entry.Set("first_hiwat_window", Value(q.first_hiwat_window));
    entry.Set("last_zero_at", Value(q.last_zero_at));
    ValueList windows;
    for (const GaugeWindow& w : q.windows) {
      Value gw;
      gw.Set("last", Value(w.last));
      gw.Set("max", Value(w.max));
      gw.Set("hiwat", Value(w.hiwat));
      windows.push_back(std::move(gw));
    }
    entry.Set("windows", Value(std::move(windows)));
    std::string key = q.component + "/" + q.name;
    while (queues.HasField(key)) {
      key += "'";  // label collision; keep both series addressable
    }
    queues.Set(std::move(key), std::move(entry));
  }
  v.Set("queues", Value(std::move(queues)));
  if (queue_series_dropped_ > 0) {
    v.Set("queue_series_dropped", Value(queue_series_dropped_));
  }
  Value topk;
  ValueList invocations;
  for (const TopEntry& e : TopInvocations()) {
    Value entry;
    entry.Set("name", Value(e.name));
    entry.Set("count", Value(e.count));
    entry.Set("error", Value(e.error));
    invocations.push_back(std::move(entry));
  }
  topk.Set("invocations", Value(std::move(invocations)));
  topk.Set("invocation_total", Value(invoke_sketch_.total()));
  ValueList hiwat;
  for (const TopEntry& e : TopHiwat()) {
    Value entry;
    entry.Set("name", Value(e.name));
    entry.Set("count", Value(e.count));
    entry.Set("error", Value(e.error));
    hiwat.push_back(std::move(entry));
  }
  topk.Set("hiwat", Value(std::move(hiwat)));
  topk.Set("hiwat_total", Value(hiwat_sketch_.total()));
  v.Set("topk", Value(std::move(topk)));
  return v;
}

std::string TelemetrySampler::ToJson() const { return ValueToJson(ToValue()); }

std::string TelemetrySampler::ToString() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line,
                "telemetry: cadence %lld ticks, %lld window(s) closed\n",
                static_cast<long long>(options_.cadence),
                static_cast<long long>(next_window_));
  out += line;
  for (const CounterView& c : CounterSeries()) {
    if (c.total == 0) {
      continue;
    }
    std::snprintf(line, sizeof line, "  %-9s total %llu  windows [",
                  c.name.c_str(), static_cast<unsigned long long>(c.total));
    out += line;
    // At most the last 16 windows keep `telemetry show` one screen wide.
    size_t first = c.windows.size() > 16 ? c.windows.size() - 16 : 0;
    if (first > 0 || c.evicted > 0) {
      out += "..";
    }
    for (size_t i = first; i < c.windows.size(); ++i) {
      if (i > first) {
        out += " ";
      }
      out += std::to_string(c.windows[i]);
    }
    out += "]";
    if (c.open > 0) {
      out += " +" + std::to_string(c.open) + " open";
    }
    out += "\n";
  }
  for (const QueueView& q : QueueSeries()) {
    std::snprintf(line, sizeof line, "  queue %s/%s: depth %llu",
                  q.component.c_str(), q.name.c_str(),
                  static_cast<unsigned long long>(q.last_depth));
    out += line;
    if (q.hiwat_total > 0) {
      std::snprintf(line, sizeof line, ", %llu hiwat hit(s) since t=%lld",
                    static_cast<unsigned long long>(q.hiwat_total),
                    static_cast<long long>(q.first_hiwat_at));
      out += line;
    }
    out += "\n";
  }
  std::vector<TopEntry> top = TopInvocations();
  if (!top.empty()) {
    out += "  top invocations:";
    for (const TopEntry& e : top) {
      out += " " + e.name + "=" + std::to_string(e.count);
      if (e.error > 0) {
        out += "(-" + std::to_string(e.error) + ")";
      }
    }
    out += "\n";
  }
  std::vector<TopEntry> hot = TopHiwat();
  if (!hot.empty()) {
    out += "  top hiwat:";
    for (const TopEntry& e : hot) {
      out += " " + e.name + "=" + std::to_string(e.count);
      if (e.error > 0) {
        out += "(-" + std::to_string(e.error) + ")";
      }
    }
    out += "\n";
  }
  return out;
}

}  // namespace eden
