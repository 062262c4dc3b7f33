// StreamAcceptor: the *passive input* primitive (write-only discipline, §5).
//
// "Within an Eject, a conventional Read routine could be implemented by
//  extracting data from an internal buffer; another process would respond to
//  incoming Write invocations and use the data thus obtained to fill the
//  same buffer."                                                 (paper §5)
//
// The acceptor is that buffer plus the responder. Flow control is
// watermark-based (STREAMS mi_hiwat/mi_lowat in miniature): a Push whose
// items bring the buffer to `hiwat` or above has its reply withheld, which
// blocks the (awaiting) producer; withheld replies are released only once
// the owner has drained the buffer below `lowat`, so a saturated producer is
// woken once per drain cycle instead of once per item. Once the stream has
// ended the buffer can only shrink, so withheld replies are released
// immediately rather than kept hostage to a watermark the producer no longer
// cares about.
//
// Two priority bands (see PROTOCOL.md): data pushes are subject to flow
// control; control pushes are never withheld, and Take() serves queued
// control items ahead of queued data. Sequenced channels are single-band.
#ifndef SRC_CORE_STREAM_ACCEPTOR_H_
#define SRC_CORE_STREAM_ACCEPTOR_H_

#include <optional>
#include <string>
#include <string_view>

#include "src/core/channel.h"
#include "src/core/stream.h"
#include "src/eden/eject.h"
#include "src/eden/ring.h"

namespace eden {

// One input channel: the queue holds accepted, untaken items, and the
// consumer waits on its `ready` for them.
struct AcceptorChannel : BandedChannel {
  static constexpr ChannelOptions kDefaults{.hiwat = 8};

  AcceptorChannel(Eject& owner, const ChannelOptions& options)
      : BandedChannel(owner, QueueComponent::kAcceptor, options) {}

  // The channel's checkpoint: positions and queue. A restored sequenced
  // channel holds everything it had accepted as durable.
  void Save(Value& state) const;
  void Restore(const Value& state);

  bool ended = false;
  Ring<ReplyHandle> withheld;  // flow-control: unanswered Push replies
  uint64_t next_seq = 0;   // position of the first item not yet accepted
  uint64_t consumed = 0;   // positions the owner has taken via Next()
  uint64_t durable = 0;
  bool explicit_durable = false;
};

// The channel map, DeclareChannel (options default: hiwat 8), buffered,
// limits, table and the checkpoint of every channel come from PassiveEnd.
// A checkpoint excludes withheld replies.
class StreamAcceptor : public PassiveEnd<AcceptorChannel> {
 public:
  // One item taken from a channel, with the band it travelled on.
  struct Taken {
    Value item;
    Band band = Band::kData;
  };

  explicit StreamAcceptor(Eject& owner) : PassiveEnd(owner) {}

  // Registers the "Push" operation (and "OpenChannel" for capability input
  // channels) on the owner.
  void InstallOps();

  // ---- Consumer side (owner's coroutines).
  // Next item on `channel`, or nullopt once the stream has ended and the
  // buffer is drained. Control-band items overtake queued data.
  Task<std::optional<Value>> Next(std::string_view channel);
  // As Next, but reports which band the item arrived on. Given a band, takes
  // from that band only, ignoring the other (for consumers that run one
  // service loop per band, like PassiveBuffer — the control loop then never
  // waits behind a data item stuck in flow control), and returns nullopt
  // once the stream has ended and *that band* is drained.
  Task<std::optional<Taken>> Take(std::string_view channel,
                                  std::optional<Band> band = std::nullopt);

  // Admission check (STREAMS canput): would a Push on `band` be admitted
  // without its reply being withheld? Control pushes always are.
  bool CanPut(std::string_view channel, Band band = Band::kData) const;
  // Back-enqueue (STREAMS putbq): returns an item the owner took but cannot
  // finish to the *front* of its band, preserving order within the band.
  // The monitor is told, so flow conservation still balances.
  void PutBack(std::string_view channel, Value item, Band band = Band::kData);

  bool ended(std::string_view channel) const;
  uint64_t items_received() const { return items_received_; }

  // ---- Recovery support (sequenced channels).
  // Position of the first item not yet accepted into the buffer.
  uint64_t accepted(std::string_view channel) const;
  // Marks positions below `pos` as durable: Push replies advertise them as
  // `ack`, licensing the sender to forget them. Call after checkpointing.
  // Until the first call, replies acknowledge whatever the owner consumed.
  void SetDurable(std::string_view channel, uint64_t pos);

 private:
  void HandlePush(InvocationContext ctx);
  void ReleaseWithheld(AcceptorChannel& channel);
  // The flow-control reply payload: empty for classic channels; {ack, next}
  // for sequenced ones.
  PushAck PushReply(const AcceptorChannel& channel) const;

  uint64_t items_received_ = 0;
};

}  // namespace eden

#endif  // SRC_CORE_STREAM_ACCEPTOR_H_
