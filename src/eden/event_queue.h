// Deterministic discrete-event queue.
//
// Events are ordered by a shard-stable key: (time, origin node, per-origin
// sequence). The origin node is the node on whose behalf the event was
// scheduled (kNoNode for the external driver) and the sequence number is
// drawn from that node's own monotone counter, so the key is a pure function
// of the simulated topology — it does not depend on how many shards execute
// it or on global insertion order. Single-shard and N-shard runs therefore
// interleave identically (tests/kernel_unit_test.cc pins this).
//
// The legacy two-argument Schedule keeps the classic behaviour (equal
// timestamps fire in insertion order) for callers that own a whole queue.
#ifndef SRC_EDEN_EVENT_QUEUE_H_
#define SRC_EDEN_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "src/eden/clock.h"
#include "src/eden/cost_model.h"

namespace eden {

// The shard-stable ordering key. Comparison is lexicographic on
// (at, origin, seq); two distinct events never compare equal because every
// (origin, seq) pair is issued once.
struct EventKey {
  Tick at = 0;
  NodeId origin = kNoNode;  // node that scheduled the event
  uint64_t seq = 0;         // that node's own monotone counter

  friend bool operator<(const EventKey& a, const EventKey& b) {
    if (a.at != b.at) {
      return a.at < b.at;
    }
    if (a.origin != b.origin) {
      return a.origin < b.origin;
    }
    return a.seq < b.seq;
  }
};

class EventQueue {
 public:
  using Action = std::function<void()>;

  // Full form: shard-stable key plus the node the action executes on behalf
  // of (`exec` selects the shard and the execution context; it may differ
  // from `key.origin`, e.g. a cross-node delivery executes on the target).
  void Schedule(EventKey key, NodeId exec, Action action) {
    heap_.push(Event{key, exec, std::move(action)});
  }

  // Legacy form: equal timestamps fire in insertion order (driver origin,
  // queue-local sequence). Used by tests that own a private queue.
  void Schedule(Tick at, Action action) {
    Schedule(EventKey{at, kNoNode, next_seq_++}, kNoNode, std::move(action));
  }

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  Tick next_time() const { return heap_.top().key.at; }
  const EventKey& next_key() const { return heap_.top().key; }

  // Pops and returns the earliest event. Precondition: !empty().
  struct PoppedEvent {
    EventKey key;
    NodeId exec = kNoNode;
    Action action;
  };
  PoppedEvent Pop() {
    // std::priority_queue::top() is const; the action must be moved out, so
    // we const_cast the owned element just before popping.
    Event& ev = const_cast<Event&>(heap_.top());
    PoppedEvent popped{ev.key, ev.exec, std::move(ev.action)};
    heap_.pop();
    return popped;
  }

 private:
  struct Event {
    EventKey key;
    NodeId exec;
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const { return b.key < a.key; }
  };

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  uint64_t next_seq_ = 0;
};

}  // namespace eden

#endif  // SRC_EDEN_EVENT_QUEUE_H_
