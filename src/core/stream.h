// The Eden stream ("Sequence") protocol.
//
// Paper §6: "The Eden transput package is nothing more than such a protocol
// designed to support the abstraction of a Sequence, together with a
// collection of library routines which help user Ejects to obey it."
//
// Wire protocol. Transfer, Push and their replies are the typed records of
// src/eden/message.h; each is charged the size of the canonical Value map
// shown here (PROTOCOL.md). A Transfer or Push whose body is a Value is
// answered kInvalidArgument. Every other op, OpenChannel included, carries
// a Value.
//
//   Transfer  TransferArgs {chan, max:int}  ->  BatchReply {items:[...], end:bool}
//     Active input / passive output. The receiver returns up to `max`
//     queued items; if none are available and the stream is open, the reply
//     is *withheld* (parked) — the "partial vacuum" of §4. `end:true`
//     accompanies (or follows) the final items.
//
//   Push      PushArgs {chan, items:[...], end:bool}  ->  PushAck {}
//     Active output / passive input. The reply is the flow-control signal:
//     it is withheld once the receiving buffer reaches its high watermark,
//     until the owner drains it below the low one. An empty PushAck encodes
//     as nil.
//
//   OpenChannel {name:str}               ->  {chan:uid}
//     Mints an unforgeable capability for a named output channel (§5's
//     "using UIDs as channel identifiers").
//
// A channel identifier on the wire is a Value: an integer (the prototype's
// "integer channel identifiers", §7), a string name, or a capability UID.
//
// Fault-tolerant extension (sequenced channels, see PROTOCOL.md): every item
// on a channel has a position, numbered from 0.
//
//   Transfer gains {seq:int, ack:int}: seq is the position of the first item
//   the caller wants (the server re-serves already-delivered items from a
//   replay window if needed); ack is the caller's durable position — the
//   server may forget everything below it. Replies gain {seq:int}, the
//   position of the first item returned.
//
//   Push gains {seq:int}, the position of the first item carried. Replies
//   gain {ack:int, next:int}: ack is the receiver's durable position, next
//   is the first position it has NOT yet accepted. next < seq+len(items)
//   signals a gap — the sender must rewind to `next` and resend.
//
// Flow-control extension (watermarks + priority bands, see PROTOCOL.md):
//
//   Push gains {band:int}: 0 = data (default, may be withheld by flow
//   control; the field is then absent), 1 = control (overtakes queued data
//   and is never withheld).
//   Bands are FIFO within themselves; control items are delivered ahead of
//   any data still queued at the receiver. Sequenced channels are
//   single-band — positions define a total order that band overtaking would
//   violate — so a control write on a sequenced channel degrades to data.
#ifndef SRC_CORE_STREAM_H_
#define SRC_CORE_STREAM_H_

#include <algorithm>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "src/eden/clock.h"
#include "src/eden/message.h"
#include "src/eden/stats.h"
#include "src/eden/status.h"
#include "src/eden/value.h"

namespace eden {

// Operation names.
inline constexpr std::string_view kOpTransfer = "Transfer";
inline constexpr std::string_view kOpPush = "Push";
inline constexpr std::string_view kOpOpenChannel = "OpenChannel";

// OpenChannel's field; the stream records' field names and the priority
// bands live with the records, in src/eden/message.h.
inline constexpr std::string_view kFieldName = "name";

// Watermark pair governing one bounded queue (STREAMS mi_hiwat/mi_lowat in
// miniature). Producers are blocked when the queue reaches `hiwat` and
// released only once it has drained below `lowat` — the gap is the
// hysteresis that stops a saturated queue from thrashing its producer awake
// once per item. hiwat 0 means "no work-ahead" and is only meaningful for
// passive-output channels (pure §4 laziness).
struct FlowLimits {
  size_t hiwat = 0;
  size_t lowat = 0;

  // Canonical form: a zero lowat derives as hiwat/2 (at least 1 when hiwat
  // is nonzero), and lowat never exceeds hiwat.
  static FlowLimits Resolve(size_t hiwat, size_t lowat) {
    FlowLimits limits;
    limits.hiwat = hiwat;
    if (hiwat == 0) {
      limits.lowat = 0;
    } else if (lowat == 0) {
      limits.lowat = std::max<size_t>(1, hiwat / 2);
    } else {
      limits.lowat = std::min(lowat, hiwat);
    }
    return limits;
  }
};

// The retry rule of the active ends (StreamReader's Transfers, StreamWriter's
// Pushes), applying a RetryPolicy. A failure worth re-invoking over — the
// target was briefly gone (crash before reactivation) or the network
// swallowed a message — is retried up to `policy.attempts` times, the k-th
// retry after `policy.backoff << (k-1)` ticks. Anything else (bad channel,
// permission, data loss) is final. The caller keeps the Invoke and Sleep
// awaits in its own coroutine frame:
//
//   RetryBudget retry(kernel.stats(), policy);
//   for (;;) {
//     InvokeResult result = co_await owner.Invoke(...);
//     if (std::optional<Tick> delay = retry.Next(result.status)) {
//       if (*delay > 0) co_await owner.Sleep(*delay);
//       continue;
//     }
//     retry.Settle(result.status);
//     ...
//   }
class RetryBudget {
 public:
  RetryBudget(AtomicStats& stats, const RetryPolicy& policy)
      : stats_(stats), attempts_(policy.attempts), backoff_(policy.backoff) {}

  // After an invocation: the pause before re-invoking (0 = at once), or
  // nullopt once `status` is final. Counts the retry.
  std::optional<Tick> Next(const Status& status) {
    bool retryable = status.is(StatusCode::kUnavailable) ||
                     status.is(StatusCode::kDeadlineExceeded);
    if (!retryable || attempt_ >= attempts_) {
      return std::nullopt;
    }
    attempt_++;
    stats_.retries++;
    return backoff_ > 0 ? backoff_ << (attempt_ - 1) : 0;
  }
  // Whether the next failure is final: no retry is left to resend a payload.
  bool exhausted() const { return attempt_ >= attempts_; }
  // Counts a recovery when a success or end-of-stream needed retries.
  void Settle(const Status& status) {
    if (attempt_ > 0 && status.ok_or_end()) {
      stats_.recoveries++;
    }
  }

 private:
  AtomicStats& stats_;
  int attempts_;
  Tick backoff_;
  int attempt_ = 0;
};

// Conventional channel names. A pure filter has exactly kChanOut; impure
// filters add kChanReport etc. (Figures 3 & 4). kChanIn names the primary
// input buffer of passive-input Ejects.
inline constexpr std::string_view kChanOut = "out";
inline constexpr std::string_view kChanIn = "in";
inline constexpr std::string_view kChanReport = "report";

}  // namespace eden

#endif  // SRC_CORE_STREAM_H_
