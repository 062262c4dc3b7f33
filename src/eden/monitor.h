// InvariantMonitor: an online checker for the paper's arithmetic identities.
//
// The paper's claims are conservation laws: every datum a stage consumes
// arrived on some wire, every datum it delivers was produced by it, the
// read-only discipline moves m items in exactly (n+1)(m+1) Transfers (§4),
// and sequenced channels never move their seq/ack marks backwards. The
// monitor is installed like the tracer and metrics registry — an optional
// kernel hook with a one-pointer-test fast path when unset — and verifies
// these identities while the pipeline runs, so a violated invariant names
// the guilty stage at the tick it went wrong instead of surfacing as a
// mysterious hang later.
//
// Two feeds converge here:
//   - the kernel forwards every TraceEvent (invoke/reply/drop/timeout/crash),
//     from which the monitor checks span-tree well-formedness (no cycles, no
//     forward parent references — the monitor sees *all* events, so unlike
//     the ring-buffered TraceRecorder a missing parent is a real defect) and
//     counts invocations per op for the (n+1)(m+1) identity;
//   - the stream primitives report item movements (produced, served, pushed,
//     pulled, accepted, consumed, put back) and sequence-counter advances
//     through the kernel's feed (Kernel::ObserveItems, ObserveSequence),
//     which gates on the monitor being installed, so the stream ends name
//     no instrument; from these the monitor checks per-stage flow
//     conservation and, at quiescence, the wire conservation `items sent
//     over edge == items received over edge`.
//
// Counting is *fresh-only*: replayed/redelivered items (sequenced recovery)
// are excluded by every reporting site, so retries account exactly once and
// a run with retries still balances. Crash/restore runs replace writer or
// reader instances mid-stream and are outside the exact-balance guarantee —
// don't assert `ok()` on runs that crash stages (the trace records those
// crashes; the monitor keeps counting but conservation may legitimately
// fail, which is precisely what makes a *silent* loss detectable in runs
// that are supposed to be loss-free).
//
// Inline violations (span-tree, sequence regressions, impossible flows) are
// appended to `violations()` and optionally emitted into a trace sink as
// kViolation events; `Check()` re-derives the end-of-run conservation and
// expectation checks on top, without mutating any total, so the shell can
// call it repeatedly.
//
// Threading. The stream-primitive hooks write only the tables of the
// record's home shard (Kernel::HomeShard: the executing shard inside a
// parallel phase, otherwise the stage's node's shard), with no lock; each
// table is one ShardedTable (shard_tables.h). Those tables keep what the
// shard recorded for good; no run folds them. An inline check reads its own
// shard's table plus a read-only base (ShardedTable::Base), which holds
// what was recorded before the last re-partition: every record about
// a stage since then landed in its home shard, so that sum is the stage's
// whole history, across runs and re-partitions. Fold is the only fold: the
// kernel calls it from set_shards, which changes every stage's home shard,
// and when it installs the monitor. The reads combine the base and the
// shard tables without moving them; neither they nor Fold are thread-safe,
// and none may overlap a run or another read. The other feeds write the
// monitor directly: the trace, static and SLO feeds single-threaded; the
// audit feed may come from a worker, serialized by the auditor, and touches
// only the violation list, which no hook reads.
//
// Violation order. Violations from the trace, static, SLO and audit feeds
// join violations() when reported. Those the stream-primitive hooks find
// wait in their shard's list until FlushViolations, which the kernel calls
// at both ends of every run, so they surface when the run that found them
// ends, even in a sequential run; a read or a Fold flushes too. Each flush
// appends them sorted by (tick, stage UID), in detection order among equal
// keys. Neither key depends on the shard count, so violations(), and the
// kViolation events emitted into the trace sink in the same order, are the
// same at any shard count. As it waits for the flush, a hook violation's
// kViolation event reaches the sink after the run's trace events, not
// beside the span that caused it.
#ifndef SRC_EDEN_MONITOR_H_
#define SRC_EDEN_MONITOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/eden/clock.h"
#include "src/eden/shard_tables.h"
#include "src/eden/stream_facts.h"
#include "src/eden/trace.h"
#include "src/eden/uid.h"
#include "src/eden/value.h"

namespace eden {

class InvariantMonitor {
 public:
  struct Violation {
    enum class Kind {
      kFlowConservation,   // items lost or duplicated on a wire/stage
      kInvocationCount,    // an ExpectInvocations identity failed
      kSpanTree,           // orphan parent / cycle in the causal tree
      kSequence,           // a seq/ack counter moved backwards
      kStatic,             // a lint finding from the verification layer
      kSlo,                // an SLO rule fired over a telemetry series
      kShardRace,          // the determinism auditor caught a cross-shard
                           // ordering breach (happens-before violation)
    };
    Kind kind = Kind::kFlowConservation;
    Tick at = 0;
    Uid stage;  // nil when not attributable to one Eject
    std::string detail;
  };

  // Per-stage item accounting (fresh items only; see file comment).
  struct Flow {
    uint64_t produced = 0;  // items the stage wrote into its output primitive
    uint64_t served = 0;    // items delivered to consumers via Transfer reply
    uint64_t pushed = 0;    // items sent downstream via Push
    uint64_t pulled = 0;    // items ingested from an upstream server
    uint64_t accepted = 0;  // items accepted from an upstream pusher
    uint64_t consumed = 0;  // items the stage's own logic took from buffers
    uint64_t putback = 0;   // items returned to a buffer after being taken

    Flow& operator+=(const Flow& o) {
      produced += o.produced;
      served += o.served;
      pushed += o.pushed;
      pulled += o.pulled;
      accepted += o.accepted;
      consumed += o.consumed;
      putback += o.putback;
      return *this;
    }
  };

  InvariantMonitor() = default;
  InvariantMonitor(const InvariantMonitor&) = delete;
  InvariantMonitor& operator=(const InvariantMonitor&) = delete;

  // ---- Kernel feed (installed via Kernel::set_monitor).
  void OnTraceEvent(const TraceEvent& event);

  // ---- Stream-primitive feed, through Kernel::ObserveItems and
  // ObserveSequence: the kernel gates on the monitor being installed (and
  // on `items` > 0) and supplies `shard`, the stage's home shard
  // (Kernel::HomeShard; see the file comment), and `at`, its now(), so the
  // monitor needs no back-pointer to the kernel.
  // `items` fresh items moved through `stage`, added to the Flow field that
  // `flow` names. `peer` is the other end of the wire for kPushed (the
  // acceptor pushed into) and kPulled (the server pulled from); other flows
  // ignore it. `band` >= 0 also charges that band of the stage's banded
  // queues (acceptors pass it; -1 charges none). A kPutBack (STREAMS putbq)
  // returns items previously consumed to the front of their queue, to be
  // consumed again: it nets out of the conservation checks instead of
  // counting twice.
  void OnItems(int shard, ItemFlow flow, const Uid& stage, const Uid& peer,
               Tick at, uint64_t items, int band);
  // Monotonicity check for a per-stage counter (server next/ack, acceptor
  // next, writer ack). Violation if `value` regresses.
  void OnSequence(int shard, const Uid& stage, Tick at, SeqCounter counter,
                  uint64_t value);
  // Folds every shard's tables into the base, flushes, and keeps at least
  // `shards` table slots, so the hooks of a run on that many workers never
  // grow the slot vector (see the file comment).
  void Fold(int shards = 1);
  // Appends the violations the hooks found since the last flush to
  // violations() and emits them into the trace sink (see the file comment).
  void FlushViolations() const;
  // ---- Static-verification feed. The PipelineLinter's error findings join
  // the violation stream here (kind kStatic), so one `monitor` report and
  // one kViolation trace carry both the runtime and the static story.
  void OnStaticFinding(Tick at, const Uid& stage, std::string detail);
  // ---- SLO feed. A fired alert rule (slo.h) joins the violation stream as
  // kind kSlo: `at` is the end tick of the window that completed the
  // sustain streak; `stage` is usually nil (rules watch global series).
  void OnSloViolation(Tick at, const Uid& stage, std::string detail);
  // ---- Determinism-audit feed. The ShardRaceAnalyzer's happens-before
  // breaches join the violation stream as kind kShardRace: `at` is the
  // offending event's virtual time; `stage` is nil (the breach belongs to
  // the shard schedule, not to one Eject).
  void OnShardRace(Tick at, const Uid& stage, std::string detail);

  // ---- Expectations, checked by Check().
  // Exactly `count` invocations of `op` by the end of the run.
  void ExpectInvocations(std::string op, uint64_t count);
  // The §4 identity: a read-only pipeline of n filters moving m items costs
  // (n+1)(m+1) Transfers. Sugar over ExpectInvocations.
  void ExpectReadOnlyPipeline(uint64_t filters, uint64_t items);

  // ---- Results. Each read flushes first and combines the tables (see the
  // file comment).
  // Inline violations recorded so far (span-tree, sequence, impossible
  // flows), in the order the file comment defines.
  const std::vector<Violation>& violations() const {
    FlushViolations();
    return violations_;
  }
  // Inline violations plus the end-of-run checks (wire conservation per
  // edge, invocation-count expectations). Non-mutating and idempotent;
  // meaningful once the kernel is quiescent.
  std::vector<Violation> Check() const;
  bool ok() const { return Check().empty(); }

  std::map<Uid, Flow> flows() const;
  uint64_t invocations_of(std::string_view op) const;

  // Violations are also emitted as TraceEvent::Kind::kViolation into this
  // sink (e.g. a TraceRecorder::Hook()) as they join violations().
  void set_trace_sink(Tracer sink) { trace_sink_ = std::move(sink); }

  void Label(const Uid& uid, std::string name);
  std::string NameOf(const Uid& uid) const;

  // Flow table + violation list, for the shell and reports.
  std::string ToString() const;
  Value ToValue() const;

  void Clear();

 private:
  // Adds `items` to `field` of `key`'s record in the shard's map of
  // `table`; returns the key's whole history (that record plus the base's).
  template <typename Table>
  static Flow Record(Table& table, int shard, const typename Table::Key& key,
                  uint64_t Flow::*field, uint64_t items);
  void CheckDelivered(int shard, const Uid& stage, Tick at, const Flow& flow);
  // After a take (or, with `put_back`, a put-back) from the stage's buffers
  // (band < 0) or one band of them: the take must not exceed what arrived,
  // the put-back what was taken.
  void CheckTaken(int shard, const Uid& stage, Tick at, int band,
                  const Flow& flow, bool put_back);
  // Held in the shard's table until the next flush.
  void Report(int shard, Violation::Kind kind, Tick at, const Uid& stage,
              std::string detail);
  // Appends to violations() and emits into the trace sink.
  void Emit(Violation violation) const;
  static void Describe(const Violation& violation, Value& out);
  // Check() over the flows and wire tables, sorted.
  std::vector<Violation> Check(const std::vector<std::pair<Uid, Flow>>& flows) const;

  // The stream-primitive reports, keyed by stage (tens of thousands of keys
  // on a wide topology, so they hash, and the reads sort).
  ShardedTable<HashMap<Uid, Flow>, &Add<Flow>> flows_;
  // Banded (acceptor-side) queues also charge every arrival, take and
  // put-back to its band (as accepted, consumed, putback), so the bands
  // provably drop nothing: a band that hands out more than arrived (net of
  // put-backs) is caught inline.
  ShardedTable<HashMap<std::pair<Uid, int>, Flow>, &Add<Flow>> bands_;
  // Wire accounting, recorded by the active end (which knows both parties):
  // items readers ingested per server, and writers pushed per acceptor.
  ShardedTable<HashMap<Uid, uint64_t>, &Add<uint64_t>> pulled_from_;
  ShardedTable<HashMap<Uid, uint64_t>, &Add<uint64_t>> pushed_into_;
  ShardedTable<HashMap<std::pair<Uid, SeqCounter>, uint64_t>, &Last<uint64_t>>
      sequences_;  // last value
  // The violations each shard's hooks found, in detection order, until the
  // next flush (which a const read may do). Sized with the tables.
  struct alignas(64) Found {
    std::vector<Violation> list;
  };
  mutable std::vector<Found> found_ = std::vector<Found>(1);
  // Flushing appends here, so the const reads may do it.
  mutable std::vector<Violation> violations_;
  std::map<std::string, uint64_t, std::less<>> invocations_by_op_;
  std::map<std::string, uint64_t, std::less<>> expected_invocations_;
  // Last span id seen per origin (an InvocationId's high bits name the node
  // that allocated it — see message.h). Ids are monotone per origin, not
  // globally, so the well-formedness checks track each origin's frontier.
  std::map<uint64_t, InvocationId> last_span_by_origin_;
  uint64_t events_seen_ = 0;
  Tracer trace_sink_;
  std::map<Uid, std::string> labels_;
};

}  // namespace eden

#endif  // SRC_EDEN_MONITOR_H_
