// The Eden stream ("Sequence") protocol.
//
// Paper §6: "The Eden transput package is nothing more than such a protocol
// designed to support the abstraction of a Sequence, together with a
// collection of library routines which help user Ejects to obey it."
//
// Wire protocol (all payloads are Values):
//
//   Transfer  {chan, max:int}            ->  {items:[...], end:bool}
//     Active input / passive output. The receiver returns up to `max`
//     queued items; if none are available and the stream is open, the reply
//     is *withheld* (parked) — the "partial vacuum" of §4. `end:true`
//     accompanies (or follows) the final items.
//
//   Push      {chan, items:[...], end:bool}  ->  {}
//     Active output / passive input. The reply is the flow-control signal:
//     it is withheld while the receiving buffer is above capacity.
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
//   control), 1 = control (overtakes queued data and is never withheld).
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
#include "src/eden/stats.h"
#include "src/eden/status.h"
#include "src/eden/value.h"

namespace eden {

// Operation names.
inline constexpr std::string_view kOpTransfer = "Transfer";
inline constexpr std::string_view kOpPush = "Push";
inline constexpr std::string_view kOpOpenChannel = "OpenChannel";

// Argument / reply field names.
inline constexpr std::string_view kFieldChannel = "chan";
inline constexpr std::string_view kFieldMax = "max";
inline constexpr std::string_view kFieldItems = "items";
inline constexpr std::string_view kFieldEnd = "end";
inline constexpr std::string_view kFieldName = "name";
// Sequenced channels only (fault tolerance; absent = classic protocol).
inline constexpr std::string_view kFieldSeq = "seq";
inline constexpr std::string_view kFieldAck = "ack";
inline constexpr std::string_view kFieldNext = "next";
// Priority band of a Push (absent = kBandData).
inline constexpr std::string_view kFieldBand = "band";

// Priority bands. Two are enough for the paper's needs: everything is data
// except the control messages (end, checkpoint, reactivate) that must not
// queue behind it.
enum class Band : int { kData = 0, kControl = 1 };

inline constexpr int BandIndex(Band band) { return static_cast<int>(band); }

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
// Pushes). A failure worth re-invoking over — the target was briefly gone
// (crash before reactivation) or the network swallowed a message — is
// retried up to `attempts` times, the k-th retry after `backoff << (k-1)`
// ticks. Anything else (bad channel, permission, data loss) is final. The
// caller keeps the Invoke and Sleep awaits in its own coroutine frame:
//
//   RetryBudget retry(kernel.stats(), attempts, backoff);
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
  RetryBudget(AtomicStats& stats, int attempts, Tick backoff)
      : stats_(stats), attempts_(attempts), backoff_(backoff) {}

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

inline Value MakeTransferArgs(Value channel, int64_t max) {
  Value args;
  args.Set(std::string(kFieldChannel), std::move(channel));
  args.Set(std::string(kFieldMax), Value(max));
  return args;
}

// Sequenced Transfer: ask for items starting at position `seq`; positions
// below `ack` are durable at the caller and may be forgotten by the server.
inline Value MakeTransferArgs(Value channel, int64_t max, uint64_t seq,
                              uint64_t ack) {
  Value args = MakeTransferArgs(std::move(channel), max);
  args.Set(std::string(kFieldSeq), Value(seq));
  args.Set(std::string(kFieldAck), Value(ack));
  return args;
}

// Items travel on `band`. Data-band pushes omit the field (the classic wire
// form stays byte-identical).
inline Value MakePushArgs(Value channel, ValueList items, bool end,
                          Band band = Band::kData) {
  Value args;
  args.Set(std::string(kFieldChannel), std::move(channel));
  args.Set(std::string(kFieldItems), Value(std::move(items)));
  args.Set(std::string(kFieldEnd), Value(end));
  if (band != Band::kData) {
    args.Set(std::string(kFieldBand), Value(static_cast<int64_t>(BandIndex(band))));
  }
  return args;
}

// Sequenced Push: the first item carried sits at position `seq`.
inline Value MakePushArgs(Value channel, ValueList items, bool end,
                          uint64_t seq) {
  Value args = MakePushArgs(std::move(channel), std::move(items), end);
  args.Set(std::string(kFieldSeq), Value(seq));
  return args;
}

inline Value MakeBatchReply(ValueList items, bool end) {
  Value reply;
  reply.Set(std::string(kFieldItems), Value(std::move(items)));
  reply.Set(std::string(kFieldEnd), Value(end));
  return reply;
}

// Sequenced batch reply: the first item returned sits at position `seq`.
inline Value MakeBatchReply(ValueList items, bool end, uint64_t seq) {
  Value reply = MakeBatchReply(std::move(items), end);
  reply.Set(std::string(kFieldSeq), Value(seq));
  return reply;
}

}  // namespace eden

#endif  // SRC_CORE_STREAM_H_
