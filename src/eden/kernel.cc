#include "src/eden/kernel.h"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <thread>
#include <utility>

#include "src/eden/audit.h"
#include "src/eden/codec.h"
#include "src/eden/eject.h"
#include "src/eden/fault.h"
#include "src/eden/log.h"
#include "src/eden/metrics.h"
#include "src/eden/monitor.h"
#include "src/eden/profile.h"
#include "src/eden/telemetry.h"

namespace eden {

namespace {
// Fixed message header size charged per message (op name charged separately).
constexpr size_t kMessageHeaderBytes = 24;
constexpr Tick kTickMax = std::numeric_limits<Tick>::max();

// Invocation ids carry their origin: (caller node + 1) in the high bits, the
// node's own monotone sequence in the low 40. The external driver (kNoNode)
// maps to 0, so driver-originated ids are the small integers 1, 2, 3...
// exactly as in the single-queue kernel. Per-node sequences make id
// allocation a function of the topology, never of the shard count.
constexpr InvocationId MakeInvocationId(NodeId caller_node, uint64_t seq) {
  return (static_cast<InvocationId>(static_cast<uint64_t>(caller_node + 1))
          << kInvocationSeqBits) |
         seq;
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Node 0 keeps the kernel's classic seed, so single-node runs draw the
// byte-identical UID sequence the seed corpus pinned; every other stream
// (driver, node k) is split deterministically from it.
uint64_t UidStreamSeed(uint64_t base, NodeId node) {
  if (node == NodeId{0}) {
    return base;
  }
  return SplitMix64(base ^ (0xEDE1ULL + static_cast<uint64_t>(node + 2) * 0x9E3779B97F4A7C15ULL));
}

// A reusable N-thread rendezvous: Arrive() blocks until all participants
// arrive; the last one runs `completion` (single-threaded, all peers parked)
// before everyone is released. The mutex hand-off is the synchronization
// edge that publishes one window's writes to the next.
class SyncPoint {
 public:
  explicit SyncPoint(int participants) : participants_(participants) {}

  template <typename Completion>
  void Arrive(Completion&& completion) {
    std::unique_lock<std::mutex> lock(mu_);
    uint64_t generation = generation_;
    if (++arrived_ == participants_) {
      completion();
      arrived_ = 0;
      generation_++;
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [&] { return generation_ != generation; });
  }

 private:
  const int participants_;
  std::mutex mu_;
  std::condition_variable cv_;
  int arrived_ = 0;
  uint64_t generation_ = 0;
};

thread_local NodeId tls_creation_node = kNoNode;
}  // namespace

thread_local Kernel::ExecContext Kernel::tls_ctx_{};

Kernel::NodeBook::NodeBook(uint64_t uid_stream_seed) : uids(uid_stream_seed) {}

// ---------------------------------------------------------------- ReplyHandle

ReplyHandle& ReplyHandle::operator=(ReplyHandle&& other) noexcept {
  if (this != &other) {
    if (kernel_ != nullptr) {
      kernel_->SendReply(id_, Status(StatusCode::kCancelled, "reply handle dropped"),
                         Value());
    }
    kernel_ = std::exchange(other.kernel_, nullptr);
    id_ = std::exchange(other.id_, 0);
  }
  return *this;
}

ReplyHandle::~ReplyHandle() {
  if (kernel_ != nullptr) {
    kernel_->SendReply(id_, Status(StatusCode::kCancelled, "reply handle dropped"),
                       Value());
  }
}

void ReplyHandle::Reply(Body&& result) {
  ReplyStatus(Status::Ok(), std::move(result));
}

void ReplyHandle::ReplyStatus(Status status, Body&& result) {
  if (kernel_ != nullptr) {
    Kernel* k = std::exchange(kernel_, nullptr);
    k->SendReply(id_, std::move(status), std::move(result));
    id_ = 0;
  }
}

void ReplyHandle::ReplyError(StatusCode code, std::string message) {
  ReplyStatus(Status(code, std::move(message)), Value());
}

// --------------------------------------------------------------- InvokeAwaiter

void InvokeAwaiter::await_suspend(std::coroutine_handle<> h) {
  if (LockObserver* observer = kernel_.lock_observer()) {
    // The caller's process is now parked until a reply (or deadline): if it
    // holds a mutex, every peer needing that mutex is parked with it.
    observer->OnBlocking(from_.uid(), "Invoke " + op_, kernel_.now());
  }
  Kernel::WaitRecord wait;
  wait.caller = from_.uid();
  wait.caller_ref = Kernel::RefOf(from_);
  wait.caller_epoch = kernel_.SlotAt(wait.caller_ref).epoch;
  wait.awaiter = this;
  wait.waiter = h;
  kernel_.SendInvocation(target_, std::move(op_), std::move(result_.body), std::move(wait),
                         deadline_);
}

void SleepAwaiter::await_suspend(std::coroutine_handle<> h) {
  kernel_.ScheduleResume(host_, h, delay_);
}

// ---------------------------------------------------------------------- Kernel

Kernel::Kernel(KernelOptions options) : options_(options) {
  if (options_.shards < 1) {
    options_.shards = 1;
  }
  node_names_.push_back("node0");
  shard_hints_.push_back(-1);
  books_.emplace_back(UidStreamSeed(options_.uid_seed, kNoNode));  // the driver
  books_.emplace_back(UidStreamSeed(options_.uid_seed, NodeId{0}));
  shards_.reserve(options_.shards);
  for (int i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->outbox.resize(options_.shards);
  }
}

Kernel::~Kernel() {
  shutting_down_ = true;
  // Destroy Ejects (and their parked coroutines) before the bookkeeping they
  // may reference, newest first: books from the last node back, slots from
  // the last back — a function of the topology, not of the shard count.
  // Reply handles fired from destructors are dropped by the shutting_down_
  // guard in SendReply.
  for (auto book = books_.rbegin(); book != books_.rend(); ++book) {
    for (auto slot = book->slots.rbegin(); slot != book->slots.rend(); ++slot) {
      slot->instance.reset();
    }
  }
  for (auto& shard : shards_) {
    shard->waits.clear();
    shard->open_replies.clear();
  }
}

NodeId Kernel::AddNode(std::string name, int shard_hint) {
  assert(!parallel_active_.load(std::memory_order_relaxed));
  node_names_.push_back(std::move(name));
  shard_hints_.push_back(shard_hint);
  NodeId node = static_cast<NodeId>(node_names_.size() - 1);
  books_.emplace_back(UidStreamSeed(options_.uid_seed, node));
  return node;
}

bool Kernel::set_shards(int shards) {
  if (shards < 1 || parallel_active_.load(std::memory_order_relaxed) ||
      !quiescent()) {
    return false;
  }
  if (shards == shard_count()) {
    return true;
  }
  Tick global_now = MaxClock();
  std::vector<std::unique_ptr<Shard>> old = std::move(shards_);
  shards_.clear();
  shards_.reserve(shards);
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->outbox.resize(shards);
    shards_.back()->clock.AdvanceTo(global_now);
  }
  options_.shards = shards;
  // Ejects stay in their nodes' books; only the in-flight invocation tables
  // follow their nodes to the new shards.
  for (auto& shard : old) {
    for (auto& [id, wait] : shard->waits) {
      shards_[ShardOf(wait.caller_ref.node)]->waits[id] = std::move(wait);
    }
    for (auto& [id, route] : shard->open_replies) {
      shards_[ShardOf(route.target_ref.node)]->open_replies[id] = std::move(route);
    }
  }
  FoldInstruments();
  return true;
}

std::vector<ShardCounters> Kernel::shard_counters() const {
  std::vector<ShardCounters> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    out.push_back(shard->counters);
  }
  return out;
}

bool Kernel::IsActive(const Uid& uid) const { return InstanceAt(Lookup(uid)) != nullptr; }

Eject* Kernel::Find(const Uid& uid) { return InstanceAt(Lookup(uid)); }

size_t Kernel::active_eject_count() const { return ActiveUids().size(); }

std::vector<Uid> Kernel::ActiveUids() const {
  std::vector<Uid> uids;
  for (const NodeBook& book : books_) {
    for (const EjectSlot& slot : book.slots) {
      if (slot.instance != nullptr) {
        uids.push_back(slot.instance->uid());
      }
    }
  }
  std::sort(uids.begin(), uids.end());
  return uids;
}

Kernel::EjectRef Kernel::Lookup(const Uid& uid) const {
  if (uid.IsNil()) {
    return EjectRef{};
  }
  auto it = directory_.find(uid);
  if (it != directory_.end()) {
    return it->second;
  }
  if (OnOwnContext() && tls_ctx_.parallel) {
    const auto& fresh = tls_ctx_.shard->fresh;
    auto mine = fresh.find(uid);
    if (mine != fresh.end()) {
      return mine->second;  // allocated by this shard earlier in the window
    }
  }
  return EjectRef{NodeId{0}, kNoSlot};
}

Kernel::EjectRef Kernel::RefOf(const Eject& eject) {
  return EjectRef{eject.node_, eject.slot_};
}

bool Kernel::Alive(EjectRef ref, uint64_t epoch) const {
  if (shutting_down_) {
    return false;
  }
  if (ref.node == kNoNode) {
    return true;  // external driver: valid for the kernel's lifetime
  }
  return InstanceAt(ref) != nullptr &&
         books_[BookIndex(ref.node)].slots[ref.slot].epoch == epoch;
}

NodeId Kernel::PushCreationNode(NodeId node) {
  return std::exchange(tls_creation_node, node);
}

void Kernel::PopCreationNode(NodeId prev) { tls_creation_node = prev; }

NodeId Kernel::CurrentNode() const {
  return OnOwnContext() ? tls_ctx_.node : kNoNode;
}

UidGenerator& Kernel::uids() { return BookFor(CurrentNode()).uids; }

void Kernel::AllocateEjectSlot(Eject& eject) {
  NodeId node = tls_creation_node;
  if (node == kNoNode) {
    NodeId current = CurrentNode();
    node = current == kNoNode ? NodeId{0} : current;
  }
  // Parallel workers may only create Ejects on nodes they own; creation on a
  // foreign shard would race its book.
  assert(!(OnOwnContext() && tls_ctx_.parallel) || ShardOf(node) == tls_ctx_.shard_index);
  NodeBook& book = BookFor(node);
  eject.uid_ = book.uids.Next();
  eject.node_ = node;
  eject.slot_ = static_cast<uint32_t>(book.slots.size());
  book.slots.emplace_back();
  auto& directory = OnOwnContext() && tls_ctx_.parallel ? tls_ctx_.shard->fresh : directory_;
  directory.emplace(eject.uid_, RefOf(eject));
}

void Kernel::AdoptEject(std::unique_ptr<Eject> eject, NodeId node) {
  assert(node >= 0 && static_cast<size_t>(node) < node_names_.size());
  Eject* raw = eject.get();
  assert(raw->node_ == node);
  SlotAt(RefOf(*raw)).instance = std::move(eject);
  stats_.ejects_created.fetch_add(1, std::memory_order_relaxed);
  EDEN_LOG(*this, kDebug) << "create " << raw->type_name() << " " << raw->uid().Short()
                          << " on " << node_names_[node];
  raw->OnStart();
}

// ------------------------------------------------------------------ scheduling

void Kernel::ScheduleOn(NodeId exec, Tick at, EventQueue::Action action) {
  NodeId origin = CurrentNode();
  NodeBook& book = BookFor(origin);
  EventKey key{at, origin, book.event_seq++};
  int target = ShardOf(exec);
  if (OnOwnContext() && tls_ctx_.parallel && target != tls_ctx_.shard_index) {
    // Cross-shard: stage into the worker-local outbox, flushed into the
    // target's mailbox once per window. The arrival time must honour the
    // lookahead promise — a message into the current window would have to
    // rewind a neighbour's clock, the one thing a conservative synchronizer
    // must never do.
    Tick promised = window_end_.load(std::memory_order_relaxed);
    if (auditor_ != nullptr) {
      auditor_->OnCrossShardSend(tls_ctx_.shard_index, target, key, promised);
    }
    if (at < promised) {
      if (auditor_ != nullptr) {
        // The auditor recorded the undercut (the run is no longer
        // certifiable); clamp the arrival up to the promise so the neighbour
        // never sees a message from its past and the run can complete.
        key.at = promised;
      } else {
        std::fprintf(
            stderr,
            "eden: lookahead violation: cross-shard event at t=%lld "
            "undercuts the window promise t=%lld (lower "
            "KernelOptions::lookahead)\n",
            static_cast<long long>(at), static_cast<long long>(promised));
        // Post-mortem breadcrumbs: the synchronizer's last few windows.
        FlightRecorder::Instance().Dump(stderr);
        std::abort();
      }
    }
    tls_ctx_.shard->outbox[target].push_back(MailItem{key, exec, std::move(action)});
    tls_ctx_.shard->counters.cross_shard_sends++;
    return;
  }
  shards_[target]->queue.Schedule(key, exec, std::move(action));
}

void Kernel::ScheduleResume(const Eject* host, std::coroutine_handle<> h,
                            Tick delay) {
  EjectRef ref = host != nullptr ? RefOf(*host) : EjectRef{};
  uint64_t epoch = host != nullptr ? SlotAt(ref).epoch : 0;
  Tick at = now() + delay + options_.costs.context_switch;
  ScheduleOn(ref.node, at, [this, ref, epoch, h, span = current_span()] {
    if (Alive(ref, epoch)) {
      stats_.context_switches.fetch_add(1, std::memory_order_relaxed);
      // Resume inside the span that scheduled the wakeup: a CondVar notify
      // fired while serving invocation N wakes its waiter as part of N's
      // causal subtree, which is what chains lazy demand across buffers.
      InvocationId prev = std::exchange(tls_ctx_.span, span);
      h.resume();
      tls_ctx_.span = prev;
    }
    // Otherwise the frame has already been destroyed with its Eject: drop.
  });
}

void Kernel::ScheduleAction(Tick delay, std::function<void()> action) {
  ScheduleOn(CurrentNode(), now() + delay, std::move(action));
}

ServiceProc::ServiceProc(Kernel& kernel, std::function<void()> fn)
    : kernel_(kernel), state_(std::make_shared<State>()) {
  state_->fn = std::move(fn);
}

void ServiceProc::Schedule() {
  if (state_->pending) {
    kernel_.stats().services_coalesced++;
    return;
  }
  state_->pending = true;
  Kernel* kernel = &kernel_;
  kernel_.ScheduleAction(0, [kernel, weak = std::weak_ptr<State>(state_)] {
    std::shared_ptr<State> state = weak.lock();
    if (state == nullptr) {
      return;  // channel torn down with the run still queued
    }
    state->pending = false;
    kernel->stats().services_run++;
    state->fn();
  });
}

// ------------------------------------------------------------------ invocation

InvokeAwaiter Kernel::Invoke(const Eject& from, Uid target, std::string op,
                             Body&& args, Tick deadline) {
  return InvokeAwaiter(*this, from, target, std::move(op), std::move(args), deadline);
}

void Kernel::ExternalInvoke(Uid target, std::string op, Body&& args,
                            std::function<void(InvokeResult)> callback) {
  WaitRecord wait;  // nil caller, driver ref: external
  wait.callback = std::move(callback);
  SendInvocation(target, std::move(op), std::move(args), std::move(wait),
                 /*deadline=*/0);
}

InvokeResult Kernel::InvokeAndRun(Uid target, std::string op, Body args) {
  bool done = false;
  InvokeResult result;
  ExternalInvoke(target, std::move(op), std::move(args), [&](InvokeResult r) {
    result = std::move(r);
    done = true;
  });
  RunUntil([&] { return done; });
  if (!done) {
    result.status = Status(StatusCode::kTimeout, "simulation quiesced without a reply");
  }
  return result;
}

void Kernel::SendInvocation(Uid target, std::string op, Body&& args, WaitRecord wait,
                            Tick deadline) {
  const Uid from = wait.caller;
  NodeId caller_node = wait.caller_ref.node;
  EjectRef target_ref = Lookup(target);  // the invocation's one directory lookup
  NodeId target_node = target_ref.node;
  NodeBook& book = BookFor(caller_node);
  InvocationId id = MakeInvocationId(caller_node, ++book.invocation_seq);
  size_t bytes = kMessageHeaderBytes + op.size() + EncodedSize(args);
  stats_.invocations_sent.fetch_add(1, std::memory_order_relaxed);
  stats_.invocation_bytes.fetch_add(bytes, std::memory_order_relaxed);

  wait.target = target;
  wait.target_node = target_node;
  wait.deadline = deadline;
  wait.parent = current_span();
  ReplyRoute route;
  route.caller = wait.caller;
  route.caller_node = caller_node;
  route.target = target;
  route.target_ref = target_ref;
  route.parent = wait.parent;
  route.sent_at = now();
  if (metrics_ != nullptr) {
    metrics_->CountInvocation(target, HomeShard(target_ref.node));
    route.op = op;  // kept for latency attribution at reply time
  }
  if (caller_node != target_node && caller_node != kNoNode && target_node != kNoNode) {
    stats_.cross_node_messages.fetch_add(1, std::memory_order_relaxed);
  }
  Tick cost = options_.costs.MessageCost(bytes, caller_node, target_node) +
              options_.costs.dispatch;
  EDEN_LOG(*this, kDebug) << "invoke " << from.Short() << " -> " << target.Short()
                          << " " << op << " (id " << id << ")";
  ObserveTrace(TraceEvent::Kind::kInvoke, from, target, id, wait.parent,
               /*ok=*/true, op);
  // Fault injection applies to inter-Eject traffic only, so external drivers
  // keep a reliable channel. A dropped invocation leaves its wait record in
  // place: the deadline (if any) is the caller's only way to learn of the
  // loss; without one the caller waits forever, exactly like 1983.
  bool lost = false;
  if (fault_ != nullptr && !from.IsNil()) {
    if (fault_->ShouldDropInvocation()) {
      lost = true;
      fault_->invocations_dropped_++;
      stats_.messages_dropped.fetch_add(1, std::memory_order_relaxed);
      EDEN_LOG(*this, kInfo) << "fault: lost invoke " << op << " (id " << id << ")";
      ObserveTrace(TraceEvent::Kind::kDrop, from, target, id, wait.parent,
                   /*ok=*/false, op);
    } else {
      cost += fault_->NextJitter();
    }
  }
  shards_[ShardOf(caller_node)]->waits[id] = std::move(wait);
  if (!lost) {
    ScheduleOn(target_node, now() + cost,
               [this, id, route = std::move(route), op = std::move(op),
                args = std::move(args)]() mutable {
                 DeliverInvocation(id, std::move(route), std::move(op), std::move(args));
               });
  }
  if (deadline > 0) {
    ScheduleOn(caller_node, now() + deadline, [this, id] { FireDeadline(id); });
  }
}

void Kernel::DeliverInvocation(InvocationId id, ReplyRoute route, std::string op,
                               Body&& args) {
  Uid target = route.target;
  EjectRef ref = route.target_ref;
  Shard& shard = *shards_[ShardOf(ref.node)];
  if (route.caller_node == ref.node && shard.waits.find(id) == shard.waits.end()) {
    return;  // caller teardown/deadline raced the delivery; nobody cares
  }
  // From here the invocation is deliverable: the route parks on the target's
  // shard and is what a (possibly stashed) ReplyHandle answers through.
  shard.open_replies[id] = std::move(route);
  if (Eject* eject = InstanceAt(ref)) {
    DispatchTo(*eject, id, std::move(op), std::move(args));
    return;
  }
  // Reactivation rebinds the UID's slot; a UID no Eject ever had has none.
  const PassiveRep* rep = ref.slot == kNoSlot ? nullptr : store_.Get(target);
  if (rep != nullptr && types_.Contains(rep->type_name)) {
    // Activation: the kernel reconstructs the Eject from its passive
    // representation, then delivers (paper §1).
    ScheduleOn(ref.node, now() + options_.costs.activation,
               [this, id, op = std::move(op), args = std::move(args)]() mutable {
                 ActivateThenDispatch(id, std::move(op), std::move(args));
               });
    return;
  }
  SendReply(id, Status(StatusCode::kNoSuchEject,
                       rep != nullptr ? "type not registered for reactivation"
                                      : "no such eject"),
            Value());
}

void Kernel::ActivateThenDispatch(InvocationId id, std::string op, Body&& args) {
  // Running on the target's shard; the parked route tells us whether anyone
  // still cares (a same-node deadline clears it along with the wait).
  Shard& shard = *tls_ctx_.shard;
  auto route_it = shard.open_replies.find(id);
  if (route_it == shard.open_replies.end()) {
    return;
  }
  Uid target = route_it->second.target;
  EjectRef ref = route_it->second.target_ref;
  // Non-null if another invocation completed activation while this one waited.
  Eject* eject = SlotAt(ref).instance.get();
  if (eject == nullptr) {
    const PassiveRep* rep = store_.Get(target);
    if (rep == nullptr) {
      SendReply(id, Status(StatusCode::kNoSuchEject, "passive rep vanished"), Value());
      return;
    }
    NodeId prev = PushCreationNode(ref.node);
    std::unique_ptr<Eject> fresh = types_.Make(rep->type_name, *this);
    PopCreationNode(prev);
    if (fresh == nullptr) {
      SendReply(id, Status(StatusCode::kNoSuchEject, "type not registered"), Value());
      return;
    }
    // Re-bind the stored identity: the reactivated instance *is* the old
    // Eject, so it keeps the old UID, slot and epoch. The UID and slot the
    // base constructor drew stay unused; anything the constructor scheduled
    // under them is dropped.
    fresh->uid_ = target;
    fresh->slot_ = ref.slot;
    Eject* raw = fresh.get();
    SlotAt(ref).instance = std::move(fresh);
    stats_.activations.fetch_add(1, std::memory_order_relaxed);
    std::optional<Value> state = Codec::Decode(rep->state);
    raw->RestoreState(state.has_value() ? *state : Value());
    raw->OnActivate();
    eject = raw;
    EDEN_LOG(*this, kInfo) << "activated " << raw->type_name() << " " << target.Short();
  }
  DispatchTo(*eject, id, std::move(op), std::move(args));
}

void Kernel::DispatchTo(Eject& eject, InvocationId id, std::string op, Body&& args) {
  // The handler runs under its own invocation's span; anything it sends (or
  // schedules — see ScheduleResume) becomes a child of this invocation.
  InvocationId prev = std::exchange(tls_ctx_.span, id);
  eject.Dispatch(InvocationContext(std::move(op), std::move(args),
                                   ReplyHandle(this, id)));
  tls_ctx_.span = prev;
}

void Kernel::SendReply(InvocationId id, Status status, Body&& result) {
  if (shutting_down_) {
    return;
  }
  // Replies are issued from the target's shard (its handlers, its teardown),
  // so the parallel path looks only there. The sequential path searches all
  // shards, preserving the classic anything-goes semantics for drivers.
  Shard* shard = nullptr;
  std::unordered_map<InvocationId, ReplyRoute>::iterator it;
  if (OnOwnContext() && tls_ctx_.parallel) {
    shard = tls_ctx_.shard;
    it = shard->open_replies.find(id);
    if (it == shard->open_replies.end()) {
      return;  // double reply, deadline already fired, or failed by teardown
    }
  } else {
    for (auto& candidate : shards_) {
      it = candidate->open_replies.find(id);
      if (it != candidate->open_replies.end()) {
        shard = candidate.get();
        break;
      }
    }
    if (shard == nullptr) {
      return;  // double reply, deadline already fired, or failed by teardown
    }
  }

  size_t bytes = kMessageHeaderBytes + EncodedSize(result);
  stats_.replies_sent.fetch_add(1, std::memory_order_relaxed);
  stats_.reply_bytes.fetch_add(bytes, std::memory_order_relaxed);
  if (!status.ok_or_end()) {
    stats_.failed_invocations.fetch_add(1, std::memory_order_relaxed);
  }

  // Fault injection: a lost reply keeps the route parked so the caller's
  // deadline can still fire (or a later teardown can answer kUnavailable).
  if (fault_ != nullptr && !it->second.caller.IsNil() &&
      fault_->ShouldDropReply()) {
    stats_.messages_dropped.fetch_add(1, std::memory_order_relaxed);
    EDEN_LOG(*this, kInfo) << "fault: lost reply (id " << id << ")";
    ObserveTrace(TraceEvent::Kind::kDrop, it->second.target, it->second.caller,
                 id, it->second.parent, /*ok=*/false, "reply");
    return;
  }

  ReplyRoute route = std::move(it->second);
  shard->open_replies.erase(it);
  if (metrics_ != nullptr) {
    // Latency = invocation send to reply send, in virtual ticks; attributed
    // to the operation name captured when the invocation left.
    metrics_->RecordLatency(route.op, static_cast<uint64_t>(now() - route.sent_at),
                            HomeShard(route.target_ref.node));
  }
  ObserveTrace(TraceEvent::Kind::kReply, route.target, route.caller, id,
               route.parent, status.ok_or_end());
  NodeId target_node = route.target_ref.node;
  Tick cost = options_.costs.MessageCost(bytes, target_node, route.caller_node);
  if (fault_ != nullptr && !route.caller.IsNil()) {
    cost += fault_->NextJitter();
  }
  if (route.caller_node == target_node) {
    // Same node (same shard): the wait record is consumed when the reply is
    // *sent* — the classic semantics, under which a deadline firing after
    // this instant is moot.
    Shard& caller_shard = *shards_[ShardOf(route.caller_node)];
    auto wait_it = caller_shard.waits.find(id);
    if (wait_it == caller_shard.waits.end()) {
      return;  // caller withdrew (teardown) between delivery and reply
    }
    WaitRecord wait = std::move(wait_it->second);
    caller_shard.waits.erase(wait_it);
    ScheduleOn(route.caller_node, now() + cost,
               [this, wait = std::move(wait), status = std::move(status),
                result = std::move(result)]() mutable {
                 DeliverReplyToWait(std::move(wait), std::move(status), std::move(result));
               });
    return;
  }
  // Cross-node: the wait record lives on another shard and is consumed when
  // the reply *arrives* there, so the deadline-vs-reply race is decided by
  // virtual-time arrival order — identical at every shard count.
  ScheduleOn(route.caller_node, now() + cost,
             [this, id, status = std::move(status), result = std::move(result)]() mutable {
               DeliverRemoteReply(id, std::move(status), std::move(result));
             });
}

void Kernel::DeliverReplyToWait(WaitRecord wait, Status status, Body&& result) {
  // The caller resumes inside *its* span (the one it was serving when it
  // invoked), not inside the replying invocation's span.
  InvocationId prev = std::exchange(tls_ctx_.span, wait.parent);
  if (wait.callback) {
    wait.callback(InvokeResult{std::move(status), std::move(result)});
    tls_ctx_.span = prev;
    return;
  }
  if (!Alive(wait.caller_ref, wait.caller_epoch)) {
    tls_ctx_.span = prev;
    return;  // caller crashed while the reply was in flight
  }
  wait.awaiter->result_ = InvokeResult{std::move(status), std::move(result)};
  stats_.context_switches.fetch_add(1, std::memory_order_relaxed);
  wait.waiter.resume();
  tls_ctx_.span = prev;
}

void Kernel::DeliverRemoteReply(InvocationId id, Status status, Body&& result) {
  // Running on the caller's shard.
  Shard& shard = *tls_ctx_.shard;
  auto it = shard.waits.find(id);
  if (it == shard.waits.end()) {
    return;  // deadline fired first: the late reply is dropped on arrival
  }
  WaitRecord wait = std::move(it->second);
  shard.waits.erase(it);
  DeliverReplyToWait(std::move(wait), std::move(status), std::move(result));
}

void Kernel::FireDeadline(InvocationId id) {
  // Running on the caller's shard.
  Shard& shard = *tls_ctx_.shard;
  auto it = shard.waits.find(id);
  if (it == shard.waits.end()) {
    return;  // a reply was consumed in time; the deadline is moot
  }
  WaitRecord wait = std::move(it->second);
  shard.waits.erase(it);
  if (wait.caller_ref.node == wait.target_node) {
    // Same shard: also retract the target side, so an undelivered invocation
    // is skipped and a late reply finds nothing — the classic semantics.
    shard.open_replies.erase(id);
  }
  stats_.timeouts.fetch_add(1, std::memory_order_relaxed);
  EDEN_LOG(*this, kInfo) << "deadline exceeded (id " << id << ")";
  ObserveTrace(TraceEvent::Kind::kTimeout, wait.target, wait.caller, id,
               wait.parent, /*ok=*/false);
  // Erasing the wait record above is what "drops" any later reply: its
  // arrival (cross-node) or its send (same-node) finds nothing to consume.
  DeliverReplyToWait(std::move(wait),
                     Status(StatusCode::kDeadlineExceeded, "invocation deadline exceeded"),
                     Value());
}

// ------------------------------------------------------------------- lifecycle

void Kernel::Checkpoint(Eject& eject) {
  stats_.checkpoints.fetch_add(1, std::memory_order_relaxed);
  store_.Put(eject.uid(), eject.type_name(), eject.node(),
             Codec::Encode(eject.SaveState()));
}

void Kernel::Crash(const Uid& uid) { TearDown(uid, /*is_crash=*/true); }

void Kernel::CrashNode(NodeId node) {
  std::vector<Uid> victims;
  for (const EjectSlot& slot : BookFor(node).slots) {
    if (slot.instance != nullptr) {
      victims.push_back(slot.instance->uid());
    }
  }
  std::sort(victims.begin(), victims.end());  // teardown order is observable
  for (const Uid& uid : victims) {
    TearDown(uid, /*is_crash=*/true);
  }
}

void Kernel::Deactivate(const Uid& uid) { TearDown(uid, /*is_crash=*/false); }

void Kernel::RequestDeactivate(const Uid& uid) {
  ScheduleAction(0, [this, uid] { Deactivate(uid); });
}

void Kernel::TearDown(const Uid& uid, bool is_crash) {
  EjectRef ref = Lookup(uid);
  if (InstanceAt(ref) == nullptr) {
    return;
  }
  EjectSlot& slot = SlotAt(ref);
  if (is_crash) {
    stats_.crashes.fetch_add(1, std::memory_order_relaxed);
    ObserveTrace(TraceEvent::Kind::kCrash, uid, uid, /*id=*/0, current_span(),
                 /*ok=*/false, slot.instance->type_name());
  } else {
    stats_.passivations.fetch_add(1, std::memory_order_relaxed);
  }
  slot.epoch++;  // invalidates every scheduled resumption for this Eject
  // Fail invocations that were delivered but not yet answered: their reply
  // handles are about to be destroyed with the instance.
  FailDeliveredPendingFor(*shards_[ShardOf(ref.node)], uid);
  std::unique_ptr<Eject> dying = std::move(slot.instance);
  EDEN_LOG(*this, kInfo) << (is_crash ? "crash " : "deactivate ") << uid.Short();
  dying.reset();  // destroys parked coroutines and reply handles
}

void Kernel::FailDeliveredPendingFor(Shard& shard, const Uid& target) {
  std::vector<InvocationId> doomed;
  for (const auto& [id, route] : shard.open_replies) {
    if (route.target == target) {
      doomed.push_back(id);
    }
  }
  std::sort(doomed.begin(), doomed.end());  // reply order is observable
  for (InvocationId id : doomed) {
    SendReply(id, Status(StatusCode::kUnavailable, "target deactivated"), Value());
  }
}

// ------------------------------------------------------------------- execution

Kernel::Shard* Kernel::MinShard() {
  Shard* best = nullptr;
  for (auto& shard : shards_) {
    if (shard->queue.empty()) {
      continue;
    }
    if (best == nullptr || shard->queue.next_key() < best->queue.next_key()) {
      best = shard.get();
    }
  }
  return best;
}

void Kernel::ExecuteEvent(Shard& shard, int shard_index,
                          EventQueue::PoppedEvent event, bool parallel) {
  assert(event.key.at >= shard.clock.now() && "virtual time must be monotone");
  shard.clock.AdvanceTo(event.key.at);
  if (auditor_ != nullptr) {
    auditor_->OnEventCommit(shard_index, event.key, parallel);
  }
  shard.counters.events_processed++;
  if (parallel) {
    shard.batched_events++;  // flushed into stats_ at the window barrier
  } else {
    stats_.events_processed.fetch_add(1, std::memory_order_relaxed);
  }
  ExecContext saved = tls_ctx_;
  tls_ctx_ = ExecContext{this, &shard, shard_index, event.exec,
                         0,    event.key, 0,        parallel};
  event.action();
  tls_ctx_ = saved;
}

bool Kernel::Step() {
  Shard* best = MinShard();
  if (best == nullptr) {
    return false;
  }
  int index = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].get() == best) {
      index = static_cast<int>(i);
      break;
    }
  }
  ExecuteEvent(*best, index, best->queue.Pop(), /*parallel=*/false);
  return true;
}

Tick Kernel::MaxClock() const {
  Tick max = 0;
  for (const auto& shard : shards_) {
    max = std::max(max, shard->clock.now());
  }
  return max;
}

Tick Kernel::now() const {
  if (OnOwnContext() && tls_ctx_.shard != nullptr) {
    return tls_ctx_.shard->clock.now();
  }
  return MaxClock();
}

bool Kernel::quiescent() const {
  for (const auto& shard : shards_) {
    if (!shard->queue.empty()) {
      return false;
    }
  }
  return true;
}

Tick Kernel::EffectiveLookahead() const {
  return options_.lookahead > 0 ? options_.lookahead : options_.costs.invocation_send;
}

bool Kernel::CanRunParallel() const {
  return shard_count() > 1 && EffectiveLookahead() > 0 && fault_ == nullptr;
}

bool Kernel::RunSequential(const std::function<bool()>& done, uint64_t max_events) {
  for (uint64_t i = 0; i < max_events; ++i) {
    if (done && done()) {
      return true;
    }
    if (!Step()) {
      return done ? done() : true;
    }
  }
  return done ? done() : quiescent();
}

template <typename Body>
bool Kernel::RunBracketed(bool parallel, Body&& body) {
  uint64_t events_before = 0;
  if (profiler_ != nullptr) {
    profiler_->OnRunStart(shard_count());
    events_before = stats_.events_processed.load(std::memory_order_relaxed);
  }
  if (monitor_ != nullptr) {
    monitor_->FlushViolations();
  }
  const bool result = body();
  if (monitor_ != nullptr) {
    monitor_->FlushViolations();
  }
  PublishShardMetrics();
  if (profiler_ != nullptr) {
    profiler_->OnRunEnd(
        stats_.events_processed.load(std::memory_order_relaxed) - events_before,
        parallel);
  }
  return result;
}

bool Kernel::RunUntil(const std::function<bool()>& done, uint64_t max_events) {
  const bool parallel = CanRunParallel();
  return RunBracketed(parallel, [&] {
    return parallel ? RunSharded(done, max_events)
                    : RunSequential(done, max_events);
  });
}

void Kernel::RunFor(Tick duration, uint64_t max_events) {
  RunBracketed(/*parallel=*/false, [&] {
    Tick deadline = now() + duration;
    for (uint64_t i = 0; i < max_events; ++i) {
      Shard* best = MinShard();
      if (best == nullptr || best->queue.next_time() > deadline) {
        break;
      }
      Step();
    }
    for (auto& shard : shards_) {
      if (shard->clock.now() < deadline) {
        shard->clock.AdvanceTo(deadline);
      }
    }
    return true;
  });
}

void Kernel::DrainMailbox(Shard& shard) {
  std::vector<MailItem> incoming;
  {
    std::lock_guard<std::mutex> lock(shard.mailbox_mu);
    incoming.swap(shard.mailbox);
  }
  if (incoming.size() > shard.counters.mailbox_high_water) {
    shard.counters.mailbox_high_water = incoming.size();
  }
  if (incoming.size() > options_.mailbox_capacity) {
    shard.counters.mailbox_overflows++;
  }
  for (MailItem& item : incoming) {
    shard.queue.Schedule(item.key, item.exec, std::move(item.action));
  }
}

void Kernel::FlushOutboxes(Shard& shard) {
  for (size_t target = 0; target < shard.outbox.size(); ++target) {
    std::vector<MailItem>& box = shard.outbox[target];
    if (box.empty()) {
      continue;
    }
    Shard& receiver = *shards_[target];
    {
      std::lock_guard<std::mutex> lock(receiver.mailbox_mu);
      for (MailItem& item : box) {
        receiver.mailbox.push_back(std::move(item));
      }
    }
    box.clear();
  }
}

bool Kernel::RunSharded(const std::function<bool()>& done, uint64_t max_events) {
  const int workers = shard_count();
  const Tick lookahead = EffectiveLookahead();
  struct Control {
    std::atomic<bool> stop{false};
    bool result = true;
    Tick window_end = 0;
    uint64_t events = 0;
  } control;
  SyncPoint top(workers);
  SyncPoint bottom(workers);
  parallel_active_.store(true, std::memory_order_relaxed);

  // Runs in exactly one thread per window, with every worker parked at the
  // barrier: the only place where cross-shard state is touched together.
  auto completion = [&] {
    for (auto& shard : shards_) {
      directory_.insert(shard->fresh.begin(), shard->fresh.end());
      shard->fresh.clear();
    }
    FlushObservations();
    uint64_t batch = 0;
    Tick t_min = kTickMax;
    for (auto& shard : shards_) {
      batch += shard->batched_events;
      shard->batched_events = 0;
      if (!shard->queue.empty()) {
        t_min = std::min(t_min, shard->queue.next_time());
      }
    }
    if (batch > 0) {
      control.events += batch;
      stats_.events_processed.fetch_add(batch, std::memory_order_relaxed);
    }
    if (t_min == kTickMax) {
      control.stop.store(true, std::memory_order_relaxed);
      control.result = true;  // quiescent
      return;
    }
    if (done && done()) {
      control.stop.store(true, std::memory_order_relaxed);
      control.result = true;
      return;
    }
    if (control.events >= max_events) {
      control.stop.store(true, std::memory_order_relaxed);
      control.result = done ? done() : false;
      return;
    }
    control.window_end = t_min + lookahead;
    window_end_.store(control.window_end, std::memory_order_relaxed);
    if (auditor_ != nullptr) {
      auditor_->OnWindowOpen(t_min, control.window_end, workers);
    }
    // One always-on breadcrumb per window (not per event): if a later
    // cross-shard send undercuts this promise, the abort dump shows the
    // windows that led up to it.
    FlightRecorder::Instance().Record(t_min, control.window_end, batch,
                                      workers);
  };

  // Read once: the profiler must not be (un)installed mid-run, and a local
  // keeps the per-window gate a register test.
  ShardProfiler* const profiler = profiler_;
  auto worker = [&](int index) {
    Shard& shard = *shards_[index];
    ExecContext saved = tls_ctx_;
    tls_ctx_ = ExecContext{this, &shard, index, kNoNode, 0, {}, 0, true};
    while (true) {
      uint64_t t0 = 0, t1 = 0, t2 = 0;
      if (profiler != nullptr) t0 = profiler->NowNs();
      DrainMailbox(shard);
      if (profiler != nullptr) t1 = profiler->NowNs();
      top.Arrive(completion);
      if (profiler != nullptr) t2 = profiler->NowNs();
      if (control.stop.load(std::memory_order_relaxed)) {
        break;
      }
      shard.counters.windows++;
      uint64_t before = shard.counters.events_processed;
      while (!shard.queue.empty() && shard.queue.next_time() < control.window_end) {
        ExecuteEvent(shard, index, shard.queue.Pop(), /*parallel=*/true);
      }
      if (shard.counters.events_processed == before) {
        shard.counters.lookahead_stalls++;  // this window was pure waiting
      }
      FlushOutboxes(shard);
      if (profiler != nullptr) {
        // Host-clock phases only; virtual time never sees any of this.
        ShardProfiler::WindowSample sample;
        const uint64_t t3 = profiler->NowNs();
        sample.window = shard.counters.windows;
        sample.window_end = control.window_end;
        sample.events = shard.counters.events_processed - before;
        sample.start_ns = t0;
        sample.drain_ns = t1 - t0;
        sample.top_barrier_ns = t2 - t1;
        sample.execute_ns = t3 - t2;  // the outbox flush rides on its tail
        bottom.Arrive([] {});
        sample.bottom_barrier_ns = profiler->NowNs() - t3;
        profiler->OnWindow(index, sample);
      } else {
        bottom.Arrive([] {});
      }
    }
    tls_ctx_ = saved;
  };

  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (int i = 1; i < workers; ++i) {
    threads.emplace_back(worker, i);
  }
  worker(0);  // the calling thread drives shard 0
  for (std::thread& t : threads) {
    t.join();
  }
  parallel_active_.store(false, std::memory_order_relaxed);
  return control.result;
}

void Kernel::set_metrics(MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics_ != nullptr) {
    metrics_->Fold(shard_count());
  }
}

void Kernel::set_monitor(InvariantMonitor* monitor) {
  monitor_ = monitor;
  if (monitor_ != nullptr) {
    monitor_->Fold(shard_count());
  }
}

void Kernel::FoldInstruments() {
  if (metrics_ != nullptr) {
    metrics_->Fold(shard_count());
  }
  if (monitor_ != nullptr) {
    monitor_->Fold(shard_count());
  }
}

void Kernel::PublishShardMetrics() {
  if (metrics_ == nullptr) {
    return;
  }
  metrics_->RecordShardCounters(shard_counters());
}

// ----------------------------------------------------------------- observation

Kernel::ObsRecord* Kernel::BufferObservation(ObsRecord::Kind kind) {
  if (!(OnOwnContext() && tls_ctx_.parallel)) {
    return nullptr;
  }
  ObsRecord& record = tls_ctx_.shard->observations.emplace_back();
  record.key = tls_ctx_.event_key;
  record.sub = tls_ctx_.obs_sub++;
  record.kind = kind;
  return &record;
}

void Kernel::ObserveTraceSlow(TraceEvent::Kind kind, const Uid& from,
                              const Uid& to, InvocationId id,
                              InvocationId parent, bool ok,
                              std::string_view op) {
  ObsRecord* record = BufferObservation(ObsRecord::Kind::kTrace);
  TraceEvent now_event;
  TraceEvent& event = record != nullptr ? record->event : now_event;
  event.kind = kind;
  event.at = now();
  event.from = from;
  event.to = to;
  event.op = std::string(op);
  event.id = id;
  event.parent = parent;
  event.ok = ok;
  if (record == nullptr) {
    DeliverTrace(event);
  }
}

void Kernel::ObserveQueueFactSlow(ObsRecord::Kind kind, QueueComponent component,
                                  const Eject& eject, uint64_t value) {
  const Uid& owner = eject.uid();
  if (metrics_ != nullptr) {
    const int shard = HomeShard(eject.node());
    if (kind == ObsRecord::Kind::kQueueDepth) {
      metrics_->RecordQueueDepth(component, owner, value, shard);
    } else {
      metrics_->CountFlowEvent(component, owner, static_cast<FlowEvent>(value),
                               shard);
    }
  }
  if (telemetry_ == nullptr) {
    return;
  }
  if (ObsRecord* record = BufferObservation(kind)) {
    record->component = component;
    record->owner = owner;
    record->at = now();
    record->value = value;
    return;
  }
  DeliverQueueFact(kind, component, owner, now(), value);
}

void Kernel::DeliverTrace(const TraceEvent& event) {
  if (tracer_) {
    tracer_(event);
  }
  if (monitor_ != nullptr) {
    monitor_->OnTraceEvent(event);
  }
  if (telemetry_ != nullptr) {
    telemetry_->OnTraceEvent(event);
  }
}

void Kernel::DeliverQueueFact(ObsRecord::Kind kind, QueueComponent component,
                              const Uid& owner, Tick at, uint64_t value) {
  if (kind == ObsRecord::Kind::kQueueDepth) {
    telemetry_->OnQueueDepth(component, owner, at, value);
  } else {
    telemetry_->OnFlowEvent(component, owner, at, static_cast<FlowEvent>(value));
  }
}

void Kernel::ObserveItemsSlow(ItemFlow flow, const Eject& owner, uint64_t items,
                              const Uid& peer, int band) {
  monitor_->OnItems(HomeShard(owner.node()), flow, owner.uid(), peer, now(), items,
                    band);
}

void Kernel::ObserveSequenceSlow(SeqCounter counter, const Eject& owner,
                                 uint64_t value) {
  monitor_->OnSequence(HomeShard(owner.node()), owner.uid(), now(), counter, value);
}

void Kernel::FlushObservations() {
  // (event key, in-event ordinal) reproduces the order a single-shard run
  // would have fanned these out in — byte-identical traces at any width.
  // Each shard executed its window in key order, so its buffer is already
  // sorted; the merge takes the least head among the shards each step.
  std::vector<std::pair<const ObsRecord*, const ObsRecord*>> heads;
  for (const auto& shard : shards_) {
    const std::vector<ObsRecord>& buffer = shard->observations;
    assert(std::is_sorted(buffer.begin(), buffer.end()));
    if (!buffer.empty()) {
      heads.emplace_back(buffer.data(), buffer.data() + buffer.size());
    }
  }
  while (!heads.empty()) {
    auto least = heads.begin();
    for (auto it = std::next(heads.begin()); it != heads.end(); ++it) {
      if (*it->first < *least->first) {
        least = it;
      }
    }
    const ObsRecord& record = *least->first;
    if (record.kind == ObsRecord::Kind::kTrace) {
      DeliverTrace(record.event);
    } else {
      DeliverQueueFact(record.kind, record.component, record.owner, record.at,
                       record.value);
    }
    if (++least->first == least->second) {
      heads.erase(least);
    }
  }
  for (auto& shard : shards_) {
    shard->observations.clear();
  }
}

InvocationId Kernel::current_span() const {
  return OnOwnContext() ? tls_ctx_.span : 0;
}

void Kernel::AdoptSpan(InvocationId span) {
  if (OnOwnContext()) {
    tls_ctx_.span = span;
  }
}

}  // namespace eden
