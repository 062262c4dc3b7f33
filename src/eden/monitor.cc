#include "src/eden/monitor.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <sstream>
#include <utility>

namespace eden {

namespace {

const char* KindName(InvariantMonitor::Violation::Kind kind) {
  using Kind = InvariantMonitor::Violation::Kind;
  switch (kind) {
    case Kind::kFlowConservation:
      return "flow-conservation";
    case Kind::kInvocationCount:
      return "invocation-count";
    case Kind::kSpanTree:
      return "span-tree";
    case Kind::kSequence:
      return "sequence";
    case Kind::kStatic:
      return "static-lint";
    case Kind::kSlo:
      return "slo";
    case Kind::kShardRace:
      return "shard-race";
  }
  return "unknown";
}

// The Flow field each ItemFlow adds to, in ItemFlow order.
using Flow = InvariantMonitor::Flow;
constexpr uint64_t Flow::*kFlowFields[] = {&Flow::produced, &Flow::served,
                                           &Flow::pushed,   &Flow::pulled,
                                           &Flow::accepted, &Flow::consumed,
                                           &Flow::putback};
static_assert(std::size(kFlowFields) == kItemFlowCount);

}  // namespace

template <typename Table>
InvariantMonitor::Flow InvariantMonitor::Record(Table& table, int shard,
                                                const typename Table::Key& key,
                                                uint64_t Flow::*field,
                                                uint64_t items) {
  Flow& added = table.Shard(shard)[key];
  added.*field += items;
  Flow total = added;
  if (const Flow* base = table.Base(key)) {
    total += *base;
  }
  return total;
}

void InvariantMonitor::Report(int shard, Violation::Kind kind, Tick at,
                              const Uid& stage, std::string detail) {
  if (static_cast<size_t>(shard) >= found_.size()) {
    found_.resize(static_cast<size_t>(shard) + 1);
  }
  found_[static_cast<size_t>(shard)].list.push_back(
      Violation{kind, at, stage, std::move(detail)});
}

void InvariantMonitor::Emit(Violation violation) const {
  if (trace_sink_) {
    TraceEvent event;
    event.kind = TraceEvent::Kind::kViolation;
    event.at = violation.at;
    event.from = violation.stage;
    event.to = violation.stage;
    event.op = std::string(KindName(violation.kind)) + ": " + violation.detail;
    event.ok = false;
    trace_sink_(event);
  }
  violations_.push_back(std::move(violation));
}

void InvariantMonitor::FlushViolations() const {
  std::vector<Violation> found;
  for (Found& shard : found_) {
    found.insert(found.end(), std::make_move_iterator(shard.list.begin()),
                 std::make_move_iterator(shard.list.end()));
    shard.list.clear();
  }
  std::stable_sort(found.begin(), found.end(),
                   [](const Violation& a, const Violation& b) {
                     return a.at != b.at ? a.at < b.at : a.stage < b.stage;
                   });
  for (Violation& violation : found) {
    Emit(std::move(violation));
  }
}

void InvariantMonitor::Fold(int shards) {
  FlushViolations();
  flows_.Fold(shards);
  bands_.Fold(shards);
  pulled_from_.Fold(shards);
  pushed_into_.Fold(shards);
  sequences_.Fold(shards);
  if (found_.size() < static_cast<size_t>(shards)) {
    found_.resize(static_cast<size_t>(shards));
  }
}

void InvariantMonitor::OnTraceEvent(const TraceEvent& event) {
  events_seen_++;
  if (event.kind != TraceEvent::Kind::kInvoke) {
    return;
  }
  invocations_by_op_[event.op]++;
  // Span-tree well-formedness. Ids are allocated per origin node (high bits;
  // see message.h) in send order, and the monitor observes invocations in
  // the deterministic trace order, so each origin's ids must arrive strictly
  // increasing, and a well-formed parent link names an id its own origin has
  // already issued — the parent's kInvoke necessarily preceded the child's
  // (the child was sent while serving the parent). Unlike the ring-buffered
  // recorder there is no eviction here, so these are real defects.
  uint64_t origin = InvocationOriginKey(event.id);
  auto [origin_it, first_from_origin] = last_span_by_origin_.try_emplace(origin, 0);
  if (!first_from_origin && event.id <= origin_it->second) {
    Emit({Violation::Kind::kSpanTree, event.at, event.from,
          "span id " + std::to_string(event.id) +
              " not monotone for its origin (last " +
              std::to_string(origin_it->second) + ")"});
  }
  if (event.parent != 0) {
    auto parent_it = last_span_by_origin_.find(InvocationOriginKey(event.parent));
    bool parent_seen = parent_it != last_span_by_origin_.end() &&
                       event.parent <= parent_it->second;
    if (!parent_seen && event.parent != event.id) {
      Emit({Violation::Kind::kSpanTree, event.at, event.from,
            "span " + std::to_string(event.id) + " names parent " +
                std::to_string(event.parent) +
                " which it cannot causally descend from"});
    } else if (event.parent == event.id) {
      Emit({Violation::Kind::kSpanTree, event.at, event.from,
            "span " + std::to_string(event.id) + " names itself as parent"});
    }
  }
  origin_it->second = event.id > origin_it->second ? event.id : origin_it->second;
}

void InvariantMonitor::CheckDelivered(int shard, const Uid& stage, Tick at,
                                      const Flow& flow) {
  if (flow.served + flow.pushed > flow.produced) {
    Report(shard, Violation::Kind::kFlowConservation, at, stage,
           NameOf(stage) + " delivered " +
               std::to_string(flow.served + flow.pushed) +
               " items but produced only " + std::to_string(flow.produced));
  }
}

void InvariantMonitor::CheckTaken(int shard, const Uid& stage, Tick at,
                                  int band, const Flow& flow, bool put_back) {
  auto who = [&] {
    return band < 0 ? NameOf(stage)
                    : NameOf(stage) + " band " + std::to_string(band);
  };
  // Put-backs return a consumed item to its buffer, so it is legitimately
  // consumed again: net consumption is consumed - putback.
  const uint64_t arrived = flow.pulled + flow.accepted + flow.putback;
  if (!put_back && flow.consumed > arrived) {
    Report(shard, Violation::Kind::kFlowConservation, at, stage,
           who() + (band < 0 ? " consumed " : " handed out ") +
               std::to_string(flow.consumed) + " items but only " +
               std::to_string(arrived) +
               (band < 0 ? " arrived" : " arrived on it"));
  }
  if (put_back && flow.putback > flow.consumed) {
    Report(shard, Violation::Kind::kFlowConservation, at, stage,
           who() + " put back " + std::to_string(flow.putback) +
               " items but " + (band < 0 ? "consumed" : "took") + " only " +
               std::to_string(flow.consumed));
  }
}

void InvariantMonitor::OnItems(int shard, ItemFlow flow, const Uid& stage,
                               const Uid& peer, Tick at, uint64_t items,
                               int band) {
  uint64_t Flow::*field = kFlowFields[static_cast<size_t>(flow)];
  if (flow == ItemFlow::kPushed) {
    pushed_into_.Shard(shard)[peer] += items;
  } else if (flow == ItemFlow::kPulled) {
    pulled_from_.Shard(shard)[peer] += items;
  }
  const bool taken = flow == ItemFlow::kConsumed || flow == ItemFlow::kPutBack;
  const bool put_back = flow == ItemFlow::kPutBack;
  const Flow total = Record(flows_, shard, stage, field, items);
  if (flow == ItemFlow::kServed || flow == ItemFlow::kPushed) {
    CheckDelivered(shard, stage, at, total);
  } else if (taken) {
    CheckTaken(shard, stage, at, -1, total, put_back);
  }
  if (band >= 0) {
    const Flow band_total = Record(bands_, shard, {stage, band}, field, items);
    if (taken) {
      CheckTaken(shard, stage, at, band, band_total, put_back);
    }
  }
}

void InvariantMonitor::OnSequence(int shard, const Uid& stage, Tick at,
                                  SeqCounter counter, uint64_t value) {
  const std::pair<Uid, SeqCounter> key{stage, counter};
  auto [it, fresh] = sequences_.Shard(shard).try_emplace(key, value);
  if (fresh) {
    const uint64_t* base = sequences_.Base(key);
    if (base == nullptr) {
      return;
    }
    it->second = *base;
  }
  if (value < it->second) {
    Report(shard, Violation::Kind::kSequence, at, stage,
           NameOf(stage) + " " + std::string(SeqCounterName(counter)) + " regressed " +
               std::to_string(it->second) + " -> " + std::to_string(value));
  }
  it->second = value;
}

void InvariantMonitor::OnStaticFinding(Tick at, const Uid& stage,
                                       std::string detail) {
  Emit({Violation::Kind::kStatic, at, stage, std::move(detail)});
}

void InvariantMonitor::OnSloViolation(Tick at, const Uid& stage,
                                      std::string detail) {
  Emit({Violation::Kind::kSlo, at, stage, std::move(detail)});
}

void InvariantMonitor::OnShardRace(Tick at, const Uid& stage,
                                   std::string detail) {
  Emit({Violation::Kind::kShardRace, at, stage, std::move(detail)});
}

void InvariantMonitor::ExpectInvocations(std::string op, uint64_t count) {
  expected_invocations_[std::move(op)] = count;
}

void InvariantMonitor::ExpectReadOnlyPipeline(uint64_t filters,
                                              uint64_t items) {
  // §4: each of the n+1 hops moves m items in m+1 Transfers (the last
  // carries the end-of-stream marker).
  ExpectInvocations("Transfer", (filters + 1) * (items + 1));
}

uint64_t InvariantMonitor::invocations_of(std::string_view op) const {
  auto it = invocations_by_op_.find(op);
  return it == invocations_by_op_.end() ? 0 : it->second;
}

std::map<Uid, InvariantMonitor::Flow> InvariantMonitor::flows() const {
  std::vector<std::pair<Uid, Flow>> sorted = flows_.Sorted();
  return {sorted.begin(), sorted.end()};
}

std::vector<InvariantMonitor::Violation> InvariantMonitor::Check() const {
  FlushViolations();
  return Check(flows_.Sorted());
}

std::vector<InvariantMonitor::Violation> InvariantMonitor::Check(
    const std::vector<std::pair<Uid, Flow>>& flows) const {
  const auto pulled_from = pulled_from_.Sorted();
  std::vector<Violation> result = violations_;
  auto report = [&result](Violation::Kind kind, const Uid& stage,
                          std::string detail) {
    Violation violation;
    violation.kind = kind;
    violation.stage = stage;
    violation.detail = std::move(detail);
    result.push_back(std::move(violation));
  };

  // Wire conservation, pull side: everything a server handed out over
  // Transfer replies must have been ingested by some reader. A shortfall
  // means a reply (and the items it carried) was lost in flight.
  for (const auto& [stage, flow] : flows) {
    const uint64_t* pulled = FindSorted(pulled_from, stage);
    const uint64_t arrived = pulled != nullptr ? *pulled : 0;
    if (flow.served != arrived) {
      report(Violation::Kind::kFlowConservation, stage,
             NameOf(stage) + " served " + std::to_string(flow.served) +
                 " items but consumers ingested " + std::to_string(arrived) +
                 " (lost on the wire)");
    }
  }
  for (const auto& [stage, arrived] : pulled_from) {
    if (FindSorted(flows, stage) == nullptr && arrived != 0) {
      report(Violation::Kind::kFlowConservation, stage,
             "consumers ingested " + std::to_string(arrived) + " items from " +
                 NameOf(stage) + " which served none");
    }
  }

  // Wire conservation, push side: everything a writer transmitted must have
  // been accepted by the acceptor it names as its sink.
  for (const auto& [sink, sent] : pushed_into_.Sorted()) {
    const Flow* flow = FindSorted(flows, sink);
    const uint64_t accepted = flow != nullptr ? flow->accepted : 0;
    if (sent != accepted) {
      report(Violation::Kind::kFlowConservation, sink,
             "writers pushed " + std::to_string(sent) + " items at " +
                 NameOf(sink) + " but it accepted " +
                 std::to_string(accepted) + " (lost on the wire)");
    }
  }

  // Invocation-count identities.
  for (const auto& [op, expected] : expected_invocations_) {
    uint64_t actual = invocations_of(op);
    if (actual != expected) {
      report(Violation::Kind::kInvocationCount, Uid(),
             "expected " + std::to_string(expected) + " " + op +
                 " invocations, observed " + std::to_string(actual));
    }
  }
  return result;
}

void InvariantMonitor::Label(const Uid& uid, std::string name) {
  labels_[uid] = std::move(name);
}

std::string InvariantMonitor::NameOf(const Uid& uid) const {
  auto it = labels_.find(uid);
  return it == labels_.end() ? uid.Short() : it->second;
}

std::string InvariantMonitor::ToString() const {
  FlushViolations();
  const auto flow_rows = flows_.Sorted();
  const auto band_rows = bands_.Sorted();
  std::ostringstream out;
  out << "invariant monitor: " << events_seen_ << " events, "
      << flow_rows.size() << " stages\n";
  out << "  stage            in(pull+acc)  consumed  produced  out(srv+psh)"
         "  buffered\n";
  for (const auto& [stage, flow] : flow_rows) {
    int64_t in = static_cast<int64_t>(flow.pulled + flow.accepted);
    int64_t delivered = static_cast<int64_t>(flow.served + flow.pushed);
    // in - net consumed (put-backs return to the buffer) still sits in input
    // buffers; produced - delivered in output buffers. Both are >= 0 when
    // conservation holds (signed so a violated run prints a legible
    // negative, not a wrapped uint64).
    int64_t buffered = (in - static_cast<int64_t>(flow.consumed) +
                        static_cast<int64_t>(flow.putback)) +
                       (static_cast<int64_t>(flow.produced) - delivered);
    char line[128];
    std::snprintf(line, sizeof(line), "  %-16s %12lld %9llu %9llu %13lld %9lld\n",
                  NameOf(stage).c_str(), static_cast<long long>(in),
                  static_cast<unsigned long long>(flow.consumed),
                  static_cast<unsigned long long>(flow.produced),
                  static_cast<long long>(delivered),
                  static_cast<long long>(buffered));
    out << line;
  }
  if (!band_rows.empty()) {
    out << "  bands (accepted/taken/putback):\n";
    for (const auto& [key, bf] : band_rows) {
      out << "    " << NameOf(key.first) << " band " << key.second << ": "
          << bf.accepted << "/" << bf.consumed << "/" << bf.putback << "\n";
    }
  }
  std::vector<Violation> found = Check(flow_rows);
  if (found.empty()) {
    out << "  all invariants hold\n";
  } else {
    out << "  VIOLATIONS (" << found.size() << "):\n";
    for (const Violation& violation : found) {
      out << "    [" << KindName(violation.kind) << "]";
      if (violation.at != 0) {
        out << " t=" << violation.at;
      }
      out << " " << violation.detail << "\n";
    }
  }
  return out.str();
}

void InvariantMonitor::Describe(const Violation& violation, Value& out) {
  out.Set("kind", Value(std::string(KindName(violation.kind))));
  out.Set("at", Value(static_cast<int64_t>(violation.at)));
  if (!violation.stage.IsNil()) {
    out.Set("stage", Value(violation.stage));
  }
  out.Set("detail", Value(violation.detail));
}

Value InvariantMonitor::ToValue() const {
  FlushViolations();
  const auto flow_rows = flows_.Sorted();
  const auto band_rows = bands_.Sorted();
  Value flows;
  for (const auto& [stage, flow] : flow_rows) {
    Value entry;
    for (size_t f = 0; f < kItemFlowCount; ++f) {
      entry.Set(std::string(kItemFlowNames[f]),
                Value(static_cast<int64_t>(flow.*kFlowFields[f])));
    }
    flows.Set(NameOf(stage), std::move(entry));
  }
  Value bands;
  for (const auto& [key, bf] : band_rows) {
    Value entry;
    entry.Set("accepted", Value(static_cast<int64_t>(bf.accepted)));
    entry.Set("taken", Value(static_cast<int64_t>(bf.consumed)));
    entry.Set("putback", Value(static_cast<int64_t>(bf.putback)));
    bands.Set(NameOf(key.first) + "/band" + std::to_string(key.second),
              std::move(entry));
  }
  Value invocations;
  for (const auto& [op, count] : invocations_by_op_) {
    invocations.Set(op, Value(static_cast<int64_t>(count)));
  }
  std::vector<Violation> found = Check(flow_rows);
  ValueList violations;
  for (const Violation& violation : found) {
    Value entry;
    Describe(violation, entry);
    violations.push_back(std::move(entry));
  }
  Value report;
  report.Set("events", Value(static_cast<int64_t>(events_seen_)));
  report.Set("flows", std::move(flows));
  if (!band_rows.empty()) {
    report.Set("bands", std::move(bands));
  }
  report.Set("invocations", std::move(invocations));
  report.Set("ok", Value(found.empty()));
  report.Set("violations", Value(std::move(violations)));
  return report;
}

void InvariantMonitor::Clear() {
  flows_.Clear();
  bands_.Clear();
  pulled_from_.Clear();
  pushed_into_.Clear();
  sequences_.Clear();
  found_ = std::vector<Found>(found_.size());
  violations_.clear();
  invocations_by_op_.clear();
  expected_invocations_.clear();
  last_span_by_origin_.clear();
  events_seen_ = 0;
  labels_.clear();
}

}  // namespace eden
