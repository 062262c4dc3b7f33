// Invocation and reply message types.
//
// "Ejects may receive and reply to invocations from other Ejects. An
//  invocation is a request to perform some named operation, and may be
//  thought of as a kind of remote procedure call."              (paper, §1)
//
// A message body is a Value, or one of the four records of the stream
// protocol (§6): Transfer and its batch reply, Push and its ack. Eden carried
// these as statically typed Concurrent Euclid records; here they are plain
// structs, so the hot path builds no dictionary. Each record's EncodedSize()
// is byte for byte what Codec gives for the canonical Value map the record
// stands for (same keys, same absent-field rules), so wire accounting and
// virtual time do not depend on which form a message takes. PROTOCOL.md
// lists the shapes.
#ifndef SRC_EDEN_MESSAGE_H_
#define SRC_EDEN_MESSAGE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "src/eden/clock.h"
#include "src/eden/status.h"
#include "src/eden/uid.h"
#include "src/eden/value.h"

namespace eden {

using InvocationId = uint64_t;

// Invocation ids are allocated per caller node: the high bits carry
// (node + 1) — 0 for the external driver, so driver ids are the small
// integers 1, 2, 3… — and the low 40 bits the node's own monotone sequence.
// Allocation is therefore a function of the simulated topology alone, never
// of the shard count executing it (DESIGN.md "Sharded kernel").
constexpr int kInvocationSeqBits = 40;
constexpr uint64_t InvocationOriginKey(InvocationId id) {
  return id >> kInvocationSeqBits;
}
constexpr uint64_t InvocationSequence(InvocationId id) {
  return id & ((uint64_t{1} << kInvocationSeqBits) - 1);
}

// The stream records' field names: the keys of the canonical map encoding.
inline constexpr std::string_view kFieldChannel = "chan";
inline constexpr std::string_view kFieldMax = "max";
inline constexpr std::string_view kFieldItems = "items";
inline constexpr std::string_view kFieldEnd = "end";
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

// Transfer {chan, max[, seq, ack]}: up to `max` items from channel `chan`.
// Sequenced callers name the first position they want (`seq`) and their
// durable position (`ack`).
struct TransferArgs {
  Value channel;
  int64_t max = 1;
  std::optional<uint64_t> seq = std::nullopt;
  std::optional<uint64_t> ack = std::nullopt;

  size_t EncodedSize() const;
};

// Push {chan, items, end[, band][, seq]}. A data-band Push carries no
// `band`; a sequenced one names the position of its first item.
struct PushArgs {
  Value channel;
  ValueList items;
  bool end = false;
  Band band = Band::kData;
  std::optional<uint64_t> seq = std::nullopt;

  size_t EncodedSize() const;
};

// Transfer's reply {items, end[, seq]}; `seq` is the position of the first
// item on a sequenced channel.
struct BatchReply {
  ValueList items;
  bool end = false;
  std::optional<uint64_t> seq = std::nullopt;

  size_t EncodedSize() const;
};

// Push's reply {ack, next} on a sequenced channel: the receiver's durable
// position and the first position it has not accepted. A classic channel
// acks with neither, which encodes as nil, as the classic reply always has.
struct PushAck {
  std::optional<uint64_t> ack = std::nullopt;
  std::optional<uint64_t> next = std::nullopt;

  size_t EncodedSize() const;
};

// How an active stream end retries its Transfers or Pushes. Each invocation
// waits at most `deadline` ticks (0 = forever). A failure worth re-invoking
// over (kUnavailable, kDeadlineExceeded) is retried up to `attempts` times,
// the k-th retry after `backoff << (k-1)` ticks. RetryBudget
// (src/core/stream.h) applies it; the topology linter checks it.
struct RetryPolicy {
  Tick deadline = 0;
  int attempts = 0;
  Tick backoff = 0;
};

// What an invocation or a reply carries.
using Body = std::variant<Value, TransferArgs, PushArgs, BatchReply, PushAck>;

// The wire size the kernel charges for `body` (Codec::EncodedSize for a
// Value).
size_t EncodedSize(const Body& body);

// The Value of a Value body; nil for a record.
const Value& BodyValue(const Body& body);

// What an awaiting caller receives when the reply arrives.
struct InvokeResult {
  Status status;
  Body body;

  bool ok() const { return status.ok(); }
  // The reply of an ordinary op; nil when the reply is a stream record.
  const Value& value() const { return BodyValue(body); }
  // The reply as record R, or null when it is anything else (an error reply
  // carries a nil Value).
  template <typename R>
  R* As() {
    return std::get_if<R>(&body);
  }
};

}  // namespace eden

#endif  // SRC_EDEN_MESSAGE_H_
