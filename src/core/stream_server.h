// StreamServer: the *passive output* half of the read-only discipline.
//
// Paper §4: "The standard IO module obtained from a library would implement
// the usual Write operations that put characters into a buffer. However,
// that buffer would be shared with a process that receives invocations which
// request data and services them."
//
// This is that library module. The owner Eject's worker processes call
// Write() (which blocks when the work-ahead buffer is full — or, with
// hiwat 0, until a consumer actually asks: full laziness); incoming
// Transfer invocations drain the buffer, parking when it is empty. The
// parked Transfer requests are §4's "partial vacuum".
#ifndef SRC_CORE_STREAM_SERVER_H_
#define SRC_CORE_STREAM_SERVER_H_

#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "src/core/channel.h"
#include "src/core/stream.h"
#include "src/eden/eject.h"
#include "src/eden/ring.h"

namespace eden {

// One output channel: the queue holds produced, never-served items, and the
// producer waits on its `ready` for space.
struct ServerChannel : BandedChannel {
  static constexpr ChannelOptions kDefaults{};

  // A withheld Transfer request: §4's "partial vacuum".
  struct Parked {
    ReplyHandle reply;
    int64_t max = 1;
    int64_t seq = -1;  // requested position; -1 = classic (next fresh item)
  };

  ServerChannel(Eject& owner, const ChannelOptions& options)
      : BandedChannel(owner, QueueComponent::kServer, options) {}

  // The channel's checkpoint: positions, replay window and queue.
  void Save(Value& state) const;
  void Restore(const Value& state);

  bool closed = false;
  // Hysteresis latch: set when the buffer reaches hiwat, cleared only
  // once it drains below lowat — a blocked producer is woken once per
  // drain cycle, not once per item.
  bool flow_blocked = false;
  Status abort_status;  // non-OK once the stream is aborted
  Ring<Parked> parked;
  // Sequenced channels: served-but-unacknowledged items occupy positions
  // [replay_base, next_seq) and are re-served on request.
  Ring<Value> replay;
  uint64_t replay_base = 0;
  uint64_t next_seq = 0;  // position of the next fresh (unserved) item
};

// The channel map, DeclareChannel (options default: hiwat 4), buffered,
// limits, table and the checkpoint of every channel come from PassiveEnd.
// A checkpoint excludes parked requests.
class StreamServer : public PassiveEnd<ServerChannel> {
 public:
  explicit StreamServer(Eject& owner) : PassiveEnd(owner) {}

  // Registers the "Transfer" and "OpenChannel" operations on the owner.
  void InstallOps();

  // ---- Producer side (owner's coroutines).
  // Blocks until the channel can accept the item (space, or parked demand).
  // Items written to a closed channel are silently dropped. Control items
  // are exempt from flow control (never block) and are served ahead of
  // queued data. On a sequenced channel (single-band: positions define a
  // total order) a control write degrades to a data write.
  Task<void> Write(std::string_view channel, Value item,
                   Band band = Band::kData);
  // Admission check (STREAMS canput): would a data Write proceed without
  // blocking right now?
  bool CanPut(std::string_view channel, Band band = Band::kData) const;
  // Back-enqueue (STREAMS putbq): returns an item to the *front* of its
  // band, preserving order within the band, and serves any parked demand.
  // For producers that obtained an item (e.g. from an upstream pull) but
  // cannot finish it this round.
  void PutBack(std::string_view channel, Value item, Band band = Band::kData);
  // Marks end-of-stream; flushes the end marker to parked readers.
  void Close(std::string_view channel);
  void CloseAll();
  // Terminates every channel with an error: parked and future Transfers
  // receive `status` instead of items. Used to propagate an upstream crash
  // downstream rather than masking it as a clean end-of-stream.
  void AbortAll(Status status);

  // Invoked the first time any Transfer arrives (laziness experiments).
  void set_on_first_demand(std::function<void()> fn) { on_first_demand_ = std::move(fn); }

  // ---- Introspection.
  size_t parked_requests(std::string_view channel) const;
  bool closed(std::string_view channel) const;
  uint64_t items_delivered() const { return items_delivered_; }
  uint64_t transfers_served() const { return transfers_served_; }
  // Transfers answered with an abort status. Counted separately: an aborted
  // stream served nothing, and conflating the two hides failed runs.
  uint64_t transfers_aborted() const { return transfers_aborted_; }
  // Sequenced channels: the lowest position still held in the replay window.
  uint64_t acked(std::string_view channel) const;

  // Convenience: mints a capability (local call — the remote path is the
  // OpenChannel invocation).
  std::optional<Uid> MintCapability(const std::string& channel) {
    return table_.MintCapability(channel, owner_.kernel());
  }

 private:
  using Parked = ServerChannel::Parked;

  void HandleTransfer(InvocationContext ctx);
  // Serves parked requests while items (or the end marker) are available.
  void Pump(ServerChannel& channel);
  // Watermark admission for a data write; maintains the hysteresis latch.
  bool WriteBlocked(ServerChannel& channel);

  std::function<void()> on_first_demand_;
  bool demand_seen_ = false;
  uint64_t items_delivered_ = 0;
  uint64_t transfers_served_ = 0;
  uint64_t transfers_aborted_ = 0;
};

}  // namespace eden

#endif  // SRC_CORE_STREAM_SERVER_H_
