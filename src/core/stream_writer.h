// StreamWriter: the *active output* primitive (write-only discipline, §5).
//
// Sends Push invocations to a passive-input correspondent. The withheld
// Push reply is the flow-control signal: Write blocks (transitively) once
// the receiver's buffer reaches its high watermark, until it drains below
// the low one, so a fast producer cannot flood a slow consumer.
//
// In sequenced mode the writer keeps every unacknowledged item in a replay
// window and stamps each Push with the position of its first item. The
// receiver's reply carries {ack, next}: positions below `ack` are durable
// there and are dropped from the window; `next` short of the end of what we
// sent signals a lost push — the writer rewinds and resends from `next`.
#ifndef SRC_CORE_STREAM_WRITER_H_
#define SRC_CORE_STREAM_WRITER_H_

#include <utility>

#include "src/core/stream.h"
#include "src/eden/eject.h"
#include "src/eden/ring.h"

namespace eden {

struct StreamWriterOptions {
  // Items accumulated locally before a Push is sent.
  int64_t batch = 1;
  // ---- Fault tolerance.
  // Deadline and retries of each Push.
  RetryPolicy retry{};
  // Number items and keep them in a replay window until acknowledged
  // (requires a sequenced channel at the receiver).
  bool sequenced = false;
};

class StreamWriter {
 public:
  using Options = StreamWriterOptions;

  StreamWriter(Eject& owner, Uid sink, Value channel, Options options = {})
      : owner_(owner), sink_(sink), channel_(std::move(channel)), options_(options) {}
  StreamWriter(const StreamWriter&) = delete;
  StreamWriter& operator=(const StreamWriter&) = delete;

  // Queues an item, flushing a full batch. The returned Status reflects the
  // last Push reply (kOk if the item was only queued locally).
  Task<Status> Write(Value item);

  // Sends one control-band item immediately, bypassing the local batch: the
  // whole point of the control band is to overtake queued data, so it never
  // waits behind pending_. On a sequenced channel bands collapse (positions
  // define a total order), so this degrades to a plain Write.
  Task<Status> WriteControl(Value item);

  // Flushes remaining items with the end-of-stream marker. Idempotent.
  Task<Status> End();

  const Status& status() const { return status_; }
  uint64_t items_written() const { return items_written_; }
  uint64_t pushes_sent() const { return pushes_sent_; }
  bool ended() const { return ended_; }

  const Uid& sink() const { return sink_; }

  // ---- Recovery support (sequenced mode): the replay window — everything
  // written but not yet acknowledged as durable — as a checkpointable
  // Value, and its inverse. Restoring rewinds transmission to the start of
  // the window; the receiver drops whatever it already has.
  Value SaveState() const;
  void RestoreState(const Value& state);

 private:
  // Sends the pending batch, or in sequenced mode the unsent window. Returns
  // the push loop's own task, so a send costs one coroutine frame.
  Task<Status> Send(bool end);
  // The classic push loop: one Push of `items` on `band`, retried under the
  // options' retry policy.
  Task<Status> Push(ValueList items, bool end, Band band);
  Task<Status> SendSequenced(bool end);

  Eject& owner_;
  Uid sink_;
  Value channel_;
  Options options_;
  ValueList pending_;  // classic mode only; sequenced items live in replay_
  bool ended_ = false;
  Status status_;
  uint64_t items_written_ = 0;
  uint64_t pushes_sent_ = 0;
  // Sequenced mode: unacknowledged items occupy positions
  // [replay_base_, replay_base_ + replay_.size()); cursor_ is the next
  // position to transmit.
  Ring<Value> replay_;
  uint64_t replay_base_ = 0;
  uint64_t cursor_ = 0;
  // Highest position ever transmitted (sequenced mode): rewound resends are
  // not fresh, so the invariant monitor's wire accounting stays exactly-once.
  uint64_t sent_high_ = 0;
};

}  // namespace eden

#endif  // SRC_CORE_STREAM_WRITER_H_
