// The Eden kernel, reproduced as a deterministic discrete-event simulation.
//
// The kernel provides exactly what the paper says the Eden kernel provided:
//  * location-independent invocation between Ejects addressed by UID (§1),
//  * activation of passive Ejects on invocation (§1),
//  * checkpointing to stable storage (§1),
//  * management of the underlying medium (here: nodes & the virtual network).
//
// Everything above that — files, directories, the whole transput system — is
// built out of Ejects, which is the paper's point.
//
// Simulation model: discrete events in virtual time. All computation inside
// handlers is instantaneous; *costs* are realized exclusively as scheduled
// delays taken from the CostModel, and *counts* (invocations, replies,
// bytes, context switches) accumulate in Stats. Identical inputs produce
// identical runs, byte for byte.
//
// Sharded execution (DESIGN.md "Sharded kernel"): the kernel is partitioned
// into N shard workers, each owning a disjoint set of NodeIds (node % N)
// with its own event queue, virtual clock, and per-node UID/sequence
// streams. Cross-shard invocations travel through mutex-guarded mailboxes
// and arrive at send_time + inter-node latency; since the cost model makes
// that latency strictly positive, it is the *lookahead* of a classic
// conservative (null-message/LBTS) synchronizer: every shard may freely
// process events earlier than the global minimum next-event time plus the
// lookahead without ever receiving a message from the past. All ordering is
// keyed by (time, origin node, per-node sequence) — a function of the
// topology, not of the shard count — so a run's output is byte-identical
// whether it executes on 1 shard or 8.
#ifndef SRC_EDEN_KERNEL_H_
#define SRC_EDEN_KERNEL_H_

#include <atomic>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/eden/clock.h"
#include "src/eden/cost_model.h"
#include "src/eden/event_queue.h"
#include "src/eden/lock_observer.h"
#include "src/eden/message.h"
#include "src/eden/stable_store.h"
#include "src/eden/stats.h"
#include "src/eden/status.h"
#include "src/eden/stream_facts.h"
#include "src/eden/task.h"
#include "src/eden/trace.h"
#include "src/eden/type_registry.h"
#include "src/eden/uid.h"
#include "src/eden/value.h"

namespace eden {

class Eject;
class FaultInjector;
class InvariantMonitor;
class Kernel;
class MetricsRegistry;
class ShardAuditor;
class ShardProfiler;
class TelemetrySampler;

// Move-only capability to reply (once) to a delivered invocation. Handlers
// may reply inline, or stash the handle and reply later — stashing is how
// *passive output* parks Read requests until data exists ("a partial vacuum
// in the form of outstanding read invocations", paper §4).
class ReplyHandle {
 public:
  ReplyHandle() = default;
  ReplyHandle(Kernel* kernel, InvocationId id) : kernel_(kernel), id_(id) {}
  ReplyHandle(ReplyHandle&& other) noexcept
      : kernel_(std::exchange(other.kernel_, nullptr)), id_(std::exchange(other.id_, 0)) {}
  ReplyHandle& operator=(ReplyHandle&& other) noexcept;
  ReplyHandle(const ReplyHandle&) = delete;
  ReplyHandle& operator=(const ReplyHandle&) = delete;
  // A handle dropped without replying answers kCancelled so callers never
  // hang; a handle whose Eject crashed is answered kUnavailable by the
  // kernel first, making this destructor reply a no-op.
  ~ReplyHandle();

  bool valid() const { return kernel_ != nullptr; }
  // The invocation this handle will answer — also its causal span id.
  InvocationId id() const { return id_; }

  void Reply(Body&& result = Value());
  void ReplyStatus(Status status, Body&& result = Value());
  void ReplyError(StatusCode code, std::string message = "");

 private:
  Kernel* kernel_ = nullptr;
  InvocationId id_ = 0;
};

// What a handler receives: the operation name, its arguments, and the means
// to reply. Deliberately *not* the invoker's UID — "the effect of a
// particular invocation ought to depend only on its parameters, and not on
// the identity of the invoker" (paper §5).
class InvocationContext {
 public:
  InvocationContext(std::string op, Body&& args, ReplyHandle reply)
      : op_(std::move(op)), args_(std::move(args)), reply_(std::move(reply)) {}
  InvocationContext(InvocationContext&&) = default;
  InvocationContext& operator=(InvocationContext&&) = default;

  const std::string& op() const { return op_; }
  // The arguments of an ordinary op; nil when they are a stream record.
  const Value& args() const { return BodyValue(args_); }
  const Value& Arg(std::string_view key) const { return args().Field(key); }
  // The arguments as record R (owned by this context: a handler may move
  // out of it), or null after answering kInvalidArgument. An op that takes
  // a record has that one wire form.
  template <typename R>
  R* RecordOrReject() {
    R* record = std::get_if<R>(&args_);
    if (record == nullptr) {
      ReplyError(StatusCode::kInvalidArgument, op_ + " takes a typed record");
    }
    return record;
  }

  void Reply(Body&& result = Value()) { reply_.Reply(std::move(result)); }
  void ReplyStatus(Status status, Body&& result = Value()) {
    reply_.ReplyStatus(std::move(status), std::move(result));
  }
  void ReplyError(StatusCode code, std::string message = "") {
    reply_.ReplyError(code, std::move(message));
  }

  // For handlers that park the reply (passive output).
  ReplyHandle TakeReply() { return std::move(reply_); }

 private:
  std::string op_;
  Body args_;
  ReplyHandle reply_;
};

// co_await-able invocation. Usage inside an Eject coroutine:
//   InvokeResult r = co_await Invoke(file, "Transfer", args);
// A nonzero `deadline` bounds the wait: if no reply has been *sent* within
// `deadline` ticks, the awaiter resumes with kDeadlineExceeded and any later
// reply is dropped by the pending-invocation machinery.
class [[nodiscard]] InvokeAwaiter {
 public:
  InvokeAwaiter(Kernel& kernel, const Eject& from, Uid target, std::string op,
                Body&& args, Tick deadline = 0)
      : kernel_(kernel),
        from_(from),
        target_(target),
        op_(std::move(op)),
        deadline_(deadline),
        result_{Status(), std::move(args)} {}

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h);
  InvokeResult await_resume() noexcept { return std::move(result_); }

 private:
  friend class Kernel;
  Kernel& kernel_;
  const Eject& from_;
  Uid target_;
  std::string op_;
  Tick deadline_ = 0;
  // The body holds the arguments until they are sent, then the reply: one
  // body per suspended caller.
  InvokeResult result_;
};

// co_await-able virtual-time sleep, bound to a host Eject (null = external).
class [[nodiscard]] SleepAwaiter {
 public:
  SleepAwaiter(Kernel& kernel, const Eject* host, Tick delay)
      : kernel_(kernel), host_(host), delay_(delay) {}

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h);
  void await_resume() const noexcept {}

 private:
  Kernel& kernel_;
  const Eject* host_;
  Tick delay_;
};

struct KernelOptions {
  CostModel costs;
  uint64_t uid_seed = 0xEDE11EDE11EDE11EULL;
  // Worker shards. Node k lives on shard k % shards (the external driver on
  // shard 0). 1 = the classic single-threaded event loop. Run/RunUntil go
  // parallel when shards > 1, the lookahead is positive, and no fault
  // injector is installed; Step/RunFor always execute sequentially (and
  // still produce the identical event order).
  int shards = 1;
  // Conservative-synchronization lookahead in ticks. 0 derives the safe
  // default, costs.invocation_send — the smallest delay any cross-shard
  // message can have (external-driver traffic pays no inter-node latency).
  // Topologies whose cross-shard traffic is exclusively node-to-node may
  // raise it toward invocation_send + cross_node_latency for fewer, larger
  // windows; the kernel aborts if a cross-shard message ever undercuts the
  // promise.
  Tick lookahead = 0;
  // Advisory bound on a shard's inbox. The window protocol self-bounds
  // mailbox growth to one window of traffic, so overflow is counted (see
  // ShardCounters::mailbox_overflows), never blocked on — blocking a sender
  // mid-window could deadlock the barrier.
  size_t mailbox_capacity = 1 << 16;
};

class Kernel {
 public:
  static constexpr uint64_t kDefaultMaxEvents = 50'000'000;

  explicit Kernel(KernelOptions options = KernelOptions());
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;
  ~Kernel();

  // ---- Topology. Node 0 ("node0") always exists.
  // `shard_hint` >= 0 pins the node to shard `hint % shards` instead of the
  // default `node % shards` round robin (partition-aware placement: adjacent
  // pipeline stages hinted to one shard stop paying cross-shard mailbox
  // traffic). Hints survive set_shards. Placement never enters EventKeys or
  // virtual time, so hinted runs stay byte-identical to unhinted ones.
  NodeId AddNode(std::string name, int shard_hint = -1);
  size_t node_count() const { return node_names_.size(); }
  const std::string& node_name(NodeId node) const { return node_names_.at(node); }

  // ---- Sharding.
  int shard_count() const { return static_cast<int>(shards_.size()); }
  int ShardOf(NodeId node) const {
    if (node <= 0) {
      return 0;
    }
    if (static_cast<size_t>(node) < shard_hints_.size() &&
        shard_hints_[static_cast<size_t>(node)] >= 0) {
      return shard_hints_[static_cast<size_t>(node)] %
             static_cast<int>(shards_.size());
    }
    return static_cast<int>(node % static_cast<NodeId>(shards_.size()));
  }
  // Re-partitions the kernel across `shards` workers. Requires quiescence
  // (no scheduled events); returns false and changes nothing otherwise.
  bool set_shards(int shards);
  // Per-shard counters from the most recent run (index = shard).
  std::vector<ShardCounters> shard_counters() const;

  // ---- Eject lifecycle.
  // Constructs an Eject of concrete type T on `node` and registers it.
  template <typename T, typename... Args>
  T& Create(NodeId node, Args&&... args) {
    NodeId prev = PushCreationNode(node);
    auto eject = std::make_unique<T>(*this, std::forward<Args>(args)...);
    PopCreationNode(prev);
    T& ref = *eject;
    AdoptEject(std::move(eject), node);
    return ref;
  }
  template <typename T, typename... Args>
  T& CreateLocal(Args&&... args) {
    return Create<T>(NodeId{0}, std::forward<Args>(args)...);
  }

  bool IsActive(const Uid& uid) const;
  Eject* Find(const Uid& uid);
  size_t active_eject_count() const;
  // All live Eject UIDs, ascending (deterministic; used by inspect.h).
  std::vector<Uid> ActiveUids() const;

  // Simulated failure: the Eject's volatile state and processes vanish; its
  // passive representation (if any) survives and the next invocation
  // reactivates it.
  void Crash(const Uid& uid);
  void CrashNode(NodeId node);
  // Graceful passivation (the Eject "explicitly deactivated" itself, §1).
  void Deactivate(const Uid& uid);
  // Deferred variant, safe to call from within the Eject's own coroutines.
  void RequestDeactivate(const Uid& uid);

  void Checkpoint(Eject& eject);

  // ---- Invocation.
  // `deadline` of 0 means wait forever (the classic Eden semantics).
  // `args` is a Value, or the stream record Transfer or Push takes
  // (message.h); the kernel charges its EncodedSize and hands it over as is.
  // From a coroutine, pass a record as a named variable: GCC 12 destroys a
  // braced temporary inside a co_await expression twice.
  InvokeAwaiter Invoke(const Eject& from, Uid target, std::string op,
                       Body&& args, Tick deadline = 0);
  // Invocation from outside the simulated system (test drivers, examples).
  void ExternalInvoke(Uid target, std::string op, Body&& args,
                      std::function<void(InvokeResult)> callback);
  // Convenience: external invoke, then run until the reply arrives.
  InvokeResult InvokeAndRun(Uid target, std::string op, Body args = Value());

  // ---- Execution.
  bool Step();  // processes one event; false if queues empty
  // Runs until quiescent; false if max_events was hit first. Goes wide
  // (shard worker threads) when the options allow it; see KernelOptions.
  bool Run(uint64_t max_events = kDefaultMaxEvents) {
    return RunUntil(nullptr, max_events);
  }
  void RunFor(Tick duration, uint64_t max_events = kDefaultMaxEvents);
  bool RunUntil(const std::function<bool()>& done,
                uint64_t max_events = kDefaultMaxEvents);
  // Inside an event: the executing shard's clock. Outside: the maximum over
  // all shard clocks (single-shard runs make both the classic global clock).
  Tick now() const;
  bool quiescent() const;

  // ---- Services.
  // Optional message tracing (zero cost when unset): the hook observes
  // every invocation and reply at send time. See src/eden/trace.h.
  void set_tracer(Tracer tracer) { tracer_ = std::move(tracer); }

  // Optional metrics (nullptr = none, the default; the recording sites cost
  // one pointer test, mirroring the unset-tracer fast path). Not owned; must
  // outlive the run. Installing folds the registry's tables (see
  // MetricsRegistry::Fold). See src/eden/metrics.h.
  void set_metrics(MetricsRegistry* metrics);
  MetricsRegistry* metrics() const { return metrics_; }

  // Optional invariant monitor (nullptr = none, the default; same
  // one-pointer-test fast path as metrics). The kernel forwards every trace
  // event to it; the stream primitives report item flows through it. Not
  // owned; must outlive the run. Installing folds the monitor's tables (see
  // InvariantMonitor::Fold). See src/eden/monitor.h.
  void set_monitor(InvariantMonitor* monitor);
  InvariantMonitor* monitor() const { return monitor_; }

  // The span (invocation id) currently being served, or 0 when control is in
  // the external driver. New invocations record this as their causal parent;
  // it follows dispatches, reply deliveries and scheduled resumptions, so a
  // wakeup caused by work done under some span stays inside that span.
  InvocationId current_span() const;

  // Reparents the rest of the current event turn onto `span`. A producer
  // that proceeds because demand is already parked (the §4 vacuum's steady
  // state never touches a condition variable) calls this with the parked
  // invocation's id, making its subsequent sends children of that demand.
  // The enclosing dispatch/resume restores the previous span when the event
  // ends, so adoption never leaks across turns.
  void AdoptSpan(InvocationId span);

  // Optional lock instrumentation (nullptr = none, the default; recording
  // sites cost one pointer test, like metrics). Mutex/CondVar (sync.h) and
  // the blocking-invocation path feed it; verify::LockOrderAnalyzer turns
  // the feed into lockdep-style deadlock detection. Not owned; must outlive
  // the run.
  void set_lock_observer(LockObserver* observer) { lock_observer_ = observer; }
  LockObserver* lock_observer() const { return lock_observer_; }

  // Kernel-unique id for a sync primitive (Mutex), so the lock observer can
  // tell instances apart without taking addresses of movable state.
  uint64_t AllocateLockId() {
    return last_lock_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  // Optional wall-clock shard profiler (nullptr = none, the default; the
  // recording sites cost one pointer test, like metrics). Records host-clock
  // phase timings — mailbox drain, barrier waits, execute, lookahead stalls —
  // per shard and per window during parallel runs, and one execute-only
  // sample per sequential run. Observation only: virtual time and event
  // order are untouched, so profiled runs stay byte-identical. Not owned;
  // must outlive the run. See src/eden/profile.h.
  void set_profiler(ShardProfiler* profiler) { profiler_ = profiler; }
  ShardProfiler* profiler() const { return profiler_; }

  // Optional telemetry time-series (nullptr = none, the default; the
  // recording sites cost one pointer test, like metrics). The sampler is fed
  // from the *merged* observation stream — sequential execution, or the
  // single-threaded window barrier of a sharded run — so its windows,
  // sketches and JSON export are byte-identical at any shard count. Not
  // owned; must outlive the run. See src/eden/telemetry.h.
  void set_telemetry(TelemetrySampler* telemetry) { telemetry_ = telemetry; }
  TelemetrySampler* telemetry() const { return telemetry_; }

  // Optional determinism auditor (nullptr = none, the default; the feed
  // sites cost one pointer test, like metrics). Receives every committed
  // EventKey, every window the barrier opens, and every cross-shard send
  // with the promise it was staged under — enough to check the conservative
  // sync contract and digest the committed stream (see src/eden/audit.h and
  // verify::ShardRaceAnalyzer). While installed, a lookahead undercut is
  // reported and clamped instead of aborting the process. Not owned; must
  // outlive the run.
  void set_auditor(ShardAuditor* auditor) { auditor_ = auditor; }
  ShardAuditor* auditor() const { return auditor_; }

  // The stream primitives' one feed for queue facts: a queue-depth sample,
  // or a flow-control incident (FlowEvent, stream_facts.h), about a queue of
  // `owner`. The metrics registry records the fact at once, into the tables
  // of the owner's home shard; telemetry receives it stamped with now(),
  // through the same deterministic observation merge as trace events. Two
  // pointer tests when neither instrument is installed.
  void ObserveQueueDepth(QueueComponent component, const Eject& owner,
                         size_t depth) {
    if (metrics_ != nullptr || telemetry_ != nullptr) {
      ObserveQueueFactSlow(ObsRecord::Kind::kQueueDepth, component, owner, depth);
    }
  }
  void ObserveFlowEvent(QueueComponent component, const Eject& owner,
                        FlowEvent event) {
    if (metrics_ != nullptr || telemetry_ != nullptr) {
      ObserveQueueFactSlow(ObsRecord::Kind::kFlowEvent, component, owner,
                           static_cast<uint64_t>(event));
    }
  }
  // The stream primitives' one feed for the invariant monitor's facts:
  // `items` fresh items of `owner` moved as `flow` names (`peer` is the
  // wire's other end for kPushed and kPulled; `band` >= 0 names an
  // acceptor's band), or a new value of one of its sequence counters. The
  // monitor records them at once, into the tables of the owner's home
  // shard, stamped with now(). One pointer test when no monitor is
  // installed; a move of zero items is no fact.
  void ObserveItems(ItemFlow flow, const Eject& owner, uint64_t items,
                    const Uid& peer = {}, int band = -1) {
    if (monitor_ != nullptr && items > 0) {
      ObserveItemsSlow(flow, owner, items, peer, band);
    }
  }
  void ObserveSequence(SeqCounter counter, const Eject& owner, uint64_t value) {
    if (monitor_ != nullptr) {
      ObserveSequenceSlow(counter, owner, value);
    }
  }
  // The home shard of a metrics or monitor record about an Eject on `node`:
  // the table slot the recording hook writes. Inside a parallel phase it is
  // the executing shard (a worker runs only its own nodes' Ejects);
  // otherwise, between runs or in a sequential one, ShardOf(node). So every
  // record about one Eject's queues and flows lands in one table, in time
  // order, until set_shards re-partitions.
  int HomeShard(NodeId node) const {
    return OnOwnContext() && tls_ctx_.parallel ? tls_ctx_.shard_index : ShardOf(node);
  }

  // Optional fault injection (nullptr = perfectly reliable medium). The
  // injector only perturbs inter-Eject traffic; messages to or from the
  // external driver are always delivered. Not owned; must outlive the run.
  // Installing one pins execution to the sequential path (the injector's
  // RNG draw order is part of the deterministic contract).
  void set_fault_injector(FaultInjector* injector) { fault_ = injector; }

  AtomicStats& stats() { return stats_; }
  const AtomicStats& stats() const { return stats_; }
  const CostModel& costs() const { return options_.costs; }
  // The effective options: `shards` tracks set_shards re-partitions. The
  // verify plan bridge reads this to lint a pipeline against the concurrency
  // configuration it will actually run under.
  const KernelOptions& options() const { return options_; }
  StableStore& store() { return store_; }
  TypeRegistry& types() { return types_; }
  // The calling context's UID stream: the executing node's inside an event,
  // the external driver's otherwise. Per-node streams keep runtime draws
  // (capabilities, session ids) deterministic at any shard count.
  UidGenerator& uids();

  // ---- Internals used by awaitables and sync primitives.
  // Gives a new Eject its UID and its slot on the creation node; called by
  // the Eject base constructor.
  void AllocateEjectSlot(Eject& eject);
  // Schedules `h.resume()` at now + delay + context-switch cost, dropped if
  // the host Eject (null = the external driver) has been torn down or
  // reactivated in the meantime.
  void ScheduleResume(const Eject* host, std::coroutine_handle<> h,
                      Tick delay = 0);
  void ScheduleAction(Tick delay, std::function<void()> action);
  void CountLocalStep() {
    stats_.local_steps.fetch_add(1, std::memory_order_relaxed);
  }

  // Reply path; no-op if `id` is unknown (double reply, crashed caller).
  void SendReply(InvocationId id, Status status, Body&& result);

 private:
  friend class InvokeAwaiter;

  // The kernel's internal name for an Eject: its home node and its slot in
  // that node's book. UIDs stay the only names outside the kernel; the
  // directory maps them to refs once, at the boundary.
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  struct EjectRef {
    NodeId node = kNoNode;  // kNoNode: the external driver (or a nil UID)
    uint32_t slot = kNoSlot;
  };
  // Slots are never reused, so a slot's epoch is its UID's epoch: teardown
  // bumps it (invalidating every scheduled resumption), reactivation keeps it.
  struct EjectSlot {
    std::unique_ptr<Eject> instance;  // null while passive
    uint64_t epoch = 1;
  };

  // Caller-side record of an in-flight invocation, owned by the caller's
  // shard. Same-node invocations consume it when the reply is *sent* (the
  // classic semantics); cross-node ones when the reply *arrives*, so the
  // deadline-vs-reply race is decided by virtual-time arrival order — a
  // rule both the 1-shard and N-shard executions apply identically.
  struct WaitRecord {
    Uid caller;  // nil for external invocations
    EjectRef caller_ref;
    uint64_t caller_epoch = 0;
    Uid target;
    NodeId target_node = 0;
    Tick deadline = 0;        // 0 = no deadline
    InvocationId parent = 0;  // span being served when this was sent
    // Exactly one of these is set.
    InvokeAwaiter* awaiter = nullptr;
    std::coroutine_handle<> waiter;
    std::function<void(InvokeResult)> callback;
  };

  // Target-side record of a delivered-but-unanswered invocation, owned by
  // the target's shard (it is what a stashed ReplyHandle answers through).
  struct ReplyRoute {
    Uid caller;
    NodeId caller_node = kNoNode;
    Uid target;
    EjectRef target_ref;  // slot kNoSlot: no Eject ever had this UID
    InvocationId parent = 0;
    Tick sent_at = 0;
    std::string op;  // filled only when metrics are installed
  };

  struct MailItem {
    EventKey key;
    NodeId exec = kNoNode;
    EventQueue::Action action;
  };

  // A buffered observation: (event key, in-event ordinal) reproduces the
  // sequential fan-out order exactly when shards merge their buffers. Trace
  // events fan out to tracer/monitor/telemetry; queue-depth and flow-event
  // records (payload in component/owner/at/value) feed telemetry only.
  struct ObsRecord {
    enum class Kind : uint8_t { kTrace, kQueueDepth, kFlowEvent };
    EventKey key;
    uint32_t sub = 0;
    Kind kind = Kind::kTrace;
    QueueComponent component{};
    TraceEvent event;
    Uid owner;
    Tick at = 0;
    uint64_t value = 0;

    bool operator<(const ObsRecord& o) const {
      return key < o.key || (!(o.key < key) && sub < o.sub);
    }
  };

  // Per-node deterministic sequence state and Eject slots. Only the owning
  // node's shard touches a book during a run; alignment keeps neighbours off
  // one line.
  struct alignas(64) NodeBook {
    explicit NodeBook(uint64_t uid_stream_seed);  // out of line: Eject is incomplete
    uint64_t event_seq = 0;       // EventKey sequence for this origin
    uint64_t invocation_seq = 0;  // InvocationId low bits
    UidGenerator uids;            // this node's UID stream
    std::vector<EjectSlot> slots;  // every Eject ever homed here
  };

  struct alignas(64) Shard {
    EventQueue queue;
    VirtualClock clock;
    std::unordered_map<InvocationId, WaitRecord> waits;
    std::unordered_map<InvocationId, ReplyRoute> open_replies;
    // UIDs allocated here during the current parallel window, merged into
    // the directory at the barrier. No other shard can hold one before then:
    // a UID travels only in a message, and mailboxes drain a window later.
    std::unordered_map<Uid, EjectRef, Uid::Hash> fresh;
    // Cross-shard inbox; drained into the queue at every window top.
    std::mutex mailbox_mu;
    std::vector<MailItem> mailbox;
    // Per-target staging, flushed (one lock per target) at window end.
    std::vector<std::vector<MailItem>> outbox;
    // Trace/monitor observations buffered during parallel execution.
    std::vector<ObsRecord> observations;
    Tick published_next = 0;  // earliest local event time, set at the barrier
    ShardCounters counters;
    uint64_t batched_events = 0;  // events_processed, flushed per window
  };

  // Thread-local execution context: which kernel/shard/node the current
  // event runs on behalf of. `kernel` mismatching `this` means "external
  // driver" (setup code, test drivers, another kernel's turf).
  struct ExecContext {
    Kernel* kernel = nullptr;
    Shard* shard = nullptr;
    int shard_index = 0;
    NodeId node = kNoNode;
    InvocationId span = 0;
    EventKey event_key{};
    uint32_t obs_sub = 0;
    bool parallel = false;
  };
  static thread_local ExecContext tls_ctx_;
  bool OnOwnContext() const { return tls_ctx_.kernel == this; }

  size_t BookIndex(NodeId node) const { return static_cast<size_t>(node + 1); }
  NodeBook& BookFor(NodeId node) { return books_[BookIndex(node)]; }
  EjectSlot& SlotAt(EjectRef ref) { return BookFor(ref.node).slots[ref.slot]; }
  // The live instance behind `ref`; null while passive or without a slot.
  Eject* InstanceAt(EjectRef ref) const {
    return ref.slot == kNoSlot
               ? nullptr
               : books_[BookIndex(ref.node)].slots[ref.slot].instance.get();
  }
  // The UID boundary: nil maps to the driver, an unknown UID to node 0 with
  // no slot (its invocations answer kNoSuchEject there).
  EjectRef Lookup(const Uid& uid) const;
  static EjectRef RefOf(const Eject& eject);
  // Whether a resumption or reply bound to (ref, epoch) may still run.
  bool Alive(EjectRef ref, uint64_t epoch) const;

  NodeId PushCreationNode(NodeId node);
  void PopCreationNode(NodeId prev);
  NodeId CurrentNode() const;

  void AdoptEject(std::unique_ptr<Eject> eject, NodeId node);
  // Central scheduler: stamps the shard-stable key (origin = current node)
  // and routes to `exec`'s shard — directly, or via the outbox when called
  // from a parallel worker targeting another shard.
  void ScheduleOn(NodeId exec, Tick at, EventQueue::Action action);
  // Bodies pass by rvalue reference, so a body moves once per event (into
  // the event's capture), not once per call layer.
  void SendInvocation(Uid target, std::string op, Body&& args, WaitRecord wait,
                      Tick deadline);
  void DeliverInvocation(InvocationId id, ReplyRoute route, std::string op,
                         Body&& args);
  void DispatchTo(Eject& eject, InvocationId id, std::string op, Body&& args);
  void ActivateThenDispatch(InvocationId id, std::string op, Body&& args);
  void DeliverReplyToWait(WaitRecord wait, Status status, Body&& result);
  void DeliverRemoteReply(InvocationId id, Status status, Body&& result);
  void FireDeadline(InvocationId id);
  void TearDown(const Uid& uid, bool is_crash);
  void FailDeliveredPendingFor(Shard& shard, const Uid& target);
  // Whether any instrument takes trace events. Callers gate on it so the
  // unset fast path stays cheap.
  bool observing() const {
    return tracer_ != nullptr || monitor_ != nullptr || telemetry_ != nullptr;
  }
  // Builds one message or crash trace event and fans it out to the tracer,
  // the invariant monitor and telemetry (in a parallel phase, into the
  // shard's buffer for the deterministic window merge), behind the
  // observing() gate (building the event stays off the unobserved path).
  void ObserveTrace(TraceEvent::Kind kind, const Uid& from, const Uid& to,
                    InvocationId id, InvocationId parent, bool ok,
                    std::string_view op = {}) {
    if (observing()) {
      ObserveTraceSlow(kind, from, to, id, parent, ok, op);
    }
  }
  void ObserveTraceSlow(TraceEvent::Kind kind, const Uid& from, const Uid& to,
                        InvocationId id, InvocationId parent, bool ok,
                        std::string_view op);
  // Delivers every shard's buffered observations in (event key, ordinal)
  // order: a k-way merge of the buffers, each already in that order.
  void FlushObservations();
  // A queue fact (kQueueDepth: value is the depth; kFlowEvent: a FlowEvent)
  // into the metrics tables, and to telemetry buffered or at once.
  void ObserveQueueFactSlow(ObsRecord::Kind kind, QueueComponent component,
                            const Eject& owner, uint64_t value);
  // Inside a parallel phase: a new record at the end of the shard's buffer,
  // stamped with the event key and in-event ordinal. Otherwise null, and
  // the caller delivers at once.
  ObsRecord* BufferObservation(ObsRecord::Kind kind);
  // The one fan-out per observation kind, shared by the immediate path and
  // the window merge.
  void DeliverTrace(const TraceEvent& event);
  void DeliverQueueFact(ObsRecord::Kind kind, QueueComponent component,
                        const Uid& owner, Tick at, uint64_t value);
  // The monitor's stream facts, with the owner's home shard and now().
  void ObserveItemsSlow(ItemFlow flow, const Eject& owner, uint64_t items,
                        const Uid& peer, int band);
  void ObserveSequenceSlow(SeqCounter counter, const Eject& owner, uint64_t value);

  void ExecuteEvent(Shard& shard, int shard_index, EventQueue::PoppedEvent event,
                    bool parallel);
  Shard* MinShard();  // shard owning the globally earliest event, or null
  Tick EffectiveLookahead() const;
  bool CanRunParallel() const;
  // Every run entry point's bracket: profiler OnRunStart/OnRunEnd around
  // `body`, the monitor's hook-found violations flushed on both sides, and
  // the shard counters published to the metrics registry. The instruments'
  // tables are not folded.
  template <typename Body>
  bool RunBracketed(bool parallel, Body&& body);
  bool RunSequential(const std::function<bool()>& done, uint64_t max_events);
  bool RunSharded(const std::function<bool()>& done, uint64_t max_events);
  void DrainMailbox(Shard& shard);
  void FlushOutboxes(Shard& shard);
  void PublishShardMetrics();
  // Folds the metrics and monitor tables into their bases, keeping a slot
  // per shard (set_shards: every node's home shard may change).
  void FoldInstruments();
  Tick MaxClock() const;

  KernelOptions options_;
  std::deque<NodeBook> books_;  // index BookIndex(node); [0] = the driver
  std::vector<std::unique_ptr<Shard>> shards_;
  // UID -> ref for every Eject ever allocated. Written only while no worker
  // runs (sequential code, the window barrier), so workers read it unlocked.
  std::unordered_map<Uid, EjectRef, Uid::Hash> directory_;
  AtomicStats stats_;
  StableStore store_;
  TypeRegistry types_;
  std::vector<std::string> node_names_;
  Tracer tracer_;
  FaultInjector* fault_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  InvariantMonitor* monitor_ = nullptr;
  LockObserver* lock_observer_ = nullptr;
  ShardProfiler* profiler_ = nullptr;
  TelemetrySampler* telemetry_ = nullptr;
  ShardAuditor* auditor_ = nullptr;
  // Per-node placement overrides (index = node id; -1 = round robin).
  std::vector<int> shard_hints_;
  std::atomic<uint64_t> last_lock_id_{0};
  // The current window's promise: no cross-shard message may arrive before
  // this tick while a parallel phase is running (checked at staging time).
  std::atomic<Tick> window_end_{0};
  std::atomic<bool> parallel_active_{false};
  bool shutting_down_ = false;
};

// A deferred service procedure — STREAMS srv() in miniature. A queue whose
// consumer may be blocked does not notify on every put (spin-notifying costs
// one wakeup per item even when the consumer cannot run yet); it calls
// Schedule(), which enqueues `fn` as a single kernel event at the current
// tick. Further Schedule() calls while that event is pending coalesce into
// it, so a burst of puts wakes the consumer exactly once, at drain time.
//
// Lifetime: the callback state is held by shared_ptr and captured weakly by
// the scheduled event, so a ServiceProc (and the channel owning it) may be
// destroyed with a run still queued — the orphaned event is a no-op.
class ServiceProc {
 public:
  ServiceProc(Kernel& kernel, std::function<void()> fn);

  // Runs `fn` once at the current tick unless a run is already pending.
  void Schedule();
  bool pending() const { return state_->pending; }

 private:
  struct State {
    std::function<void()> fn;
    bool pending = false;
  };

  Kernel& kernel_;
  std::shared_ptr<State> state_;
};

}  // namespace eden

#endif  // SRC_EDEN_KERNEL_H_
