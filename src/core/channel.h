// Channel identifiers, the per-Eject channel table, and the banded channel
// queue both passive stream ends share.
//
// Paper §5: "In the 'read only' model, a channel identifier is associated
// with each output stream, and each Read invocation is qualified by the
// appropriate identifier."
//
// Three identifier spellings are accepted on the wire:
//   * integer index — "We are experimenting with a 'read only' transput
//     system that uses integer channel identifiers" (§7); index i denotes
//     the i-th declared channel.
//   * string name — the documented channel names ("Output", "Report").
//   * capability UID — unforgeable identifiers minted by OpenChannel (§5);
//     a channel may be marked capability-only, in which case its integer
//     and string spellings are refused *as if the channel did not exist*
//     (kNoSuchChannel, so probing reveals nothing).
#ifndef SRC_CORE_CHANNEL_H_
#define SRC_CORE_CHANNEL_H_

#include <cassert>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/stream.h"
#include "src/eden/eject.h"
#include "src/eden/ring.h"
#include "src/eden/stream_facts.h"
#include "src/eden/sync.h"
#include "src/eden/uid.h"
#include "src/eden/value.h"

namespace eden {

// Resolves wire channel identifiers to declared channel names.
class ChannelTable {
 public:
  ChannelTable() = default;
  // The OpenChannel handler holds the table's address.
  ChannelTable(const ChannelTable&) = delete;
  ChannelTable& operator=(const ChannelTable&) = delete;

  // Declares a channel; its integer identifier is its declaration order.
  // Returns the index. Declaring an existing name is an error (false).
  bool Declare(std::string name, bool capability_only = false);

  bool Contains(std::string_view name) const;
  size_t size() const { return names_.size(); }
  const std::vector<std::string>& names() const { return names_; }

  // Mints a fresh capability UID for `name` (which must exist).
  std::optional<Uid> MintCapability(const std::string& name, Kernel& kernel);

  // Resolves a wire identifier (int / str / uid Value) to a channel name.
  // Capability-only channels resolve *only* via a minted UID.
  std::optional<std::string> Resolve(const Value& wire_id) const;

  bool IsCapabilityOnly(std::string_view name) const;

  size_t minted_count() const { return capabilities_.size(); }

  // Registers the "OpenChannel" operation on `owner`, answered from this
  // table (replacing any earlier registration). Both passive ends install
  // it; on an Eject embedding both, the last table installed answers.
  void AnswerOpenChannel(Eject& owner);
  // Once channel setup is complete the owner may freeze capability minting;
  // later OpenChannel invocations get kPermissionDenied.
  void Lock() { locked_ = true; }

 private:
  void HandleOpenChannel(InvocationContext ctx, Kernel& kernel);

  bool locked_ = false;
  std::vector<std::string> names_;            // index -> name
  std::map<std::string, bool, std::less<>> capability_only_;
  std::map<Uid, std::string> capabilities_;   // minted UID -> name
};

// The options of one channel on either passive end.
struct ChannelOptions {
  // Watermarks. A producer that brings the queue to `hiwat` is held back (a
  // server's Write blocks, an acceptor withholds the Push reply) until the
  // owner drains it below `lowat`; 0 derives lowat as hiwat/2, at least 1.
  // hiwat 0 on a server channel is pure §4 laziness: the producer writes
  // only into a parked Transfer.
  size_t hiwat = 4;
  size_t lowat = 0;
  // If set, the channel can be addressed only via capabilities minted by
  // OpenChannel; integer/name identifiers act as if the channel does not
  // exist (paper §5).
  bool capability_only = false;
  // Fault tolerance: every item has a position. A server keeps served
  // items in a replay window until the consumer acknowledges them, so a
  // consumer that lost a reply (or its own state) can re-request them. An
  // acceptor drops a duplicate prefix from a retrying sender, and refuses a
  // gap (a Push it never saw) with a reply naming the position it expects.
  bool sequenced = false;
};

// The two-band queue behind one channel of either passive end: a
// StreamServer output channel (the producer appends, Transfers take) or a
// StreamAcceptor input channel (Pushes append, the owner takes). Paper §5
// makes the two ends duals, so everything but the asymmetric half lives
// here: which band an item travels on, taking control ahead of data,
// put-back, the depth and flow reports, the checkpointed queue contents,
// and the watermarks, wait queue and deferred service of the owner's
// processes. The server adds parked Transfers and the replay window; the
// acceptor adds withheld Push replies and its positions.
class BandedChannel {
 public:
  // `component` names the queue in depth and flow reports (kServer,
  // kAcceptor).
  BandedChannel(Eject& owner, QueueComponent component,
                const ChannelOptions& options)
      : limits(FlowLimits::Resolve(options.hiwat, options.lowat)),
        sequenced(options.sequenced),
        ready(owner),
        // Deferred service (STREAMS srv): wakes the waiting processes once
        // per burst or drain cycle instead of once per item.
        service(owner.kernel(), [this] { ready.NotifyAll(); }),
        owner_(owner),
        component_(component) {}
  BandedChannel(const BandedChannel&) = delete;
  BandedChannel& operator=(const BandedChannel&) = delete;
  // Out of line: one copy of the queue teardown instead of one per end.
  ~BandedChannel();

  // Sequenced channels are single-band: positions define a total order that
  // band overtaking would violate, so every item there travels as data.
  Band BandOf(Band band) const { return sequenced ? Band::kData : band; }
  // Total queued depth across both bands.
  size_t Depth() const { return data_.size() + control_.size(); }
  // Whether `band` (or, without one, either band) holds an item.
  bool Holds(std::optional<Band> band = std::nullopt) const {
    return band ? !Queue(*band).empty() : Depth() != 0;
  }
  // The band the next take serves: control overtakes queued data.
  Band FrontBand() const {
    return control_.empty() ? Band::kData : Band::kControl;
  }

  template <typename V>
  void Append(V&& item, Band band) {
    Queue(BandOf(band)).push_back(std::forward<V>(item));
  }
  // Pops the front of `band`; a control item leaving ahead of queued data is
  // reported as a band overtake.
  Value Take(Band band);
  // Back-enqueue (STREAMS putbq): returns an item to the front of its band.
  void PutBack(Value item, Band band);
  void Clear() {
    data_.clear();
    control_.clear();
  }

  void ReportDepth() const;
  void Report(FlowEvent event) const;
  // Schedules the deferred service if any process waits on `ready`.
  void WakeWaiters() {
    if (ready.waiter_count() > 0) {
      service.Schedule();
    }
  }

  // The queue's share of a channel checkpoint: "buffer" (data) and, when
  // non-empty, "control".
  void Save(Value& state) const;
  void Restore(const Value& state);

  const FlowLimits limits;
  const bool sequenced;
  // The owner's processes wait here: a producer for space on a server
  // channel, a consumer for items on an acceptor channel.
  CondVar ready;
  ServiceProc service;

 private:
  Ring<Value>& Queue(Band band) {
    return band == Band::kControl ? control_ : data_;
  }
  const Ring<Value>& Queue(Band band) const {
    return band == Band::kControl ? control_ : data_;
  }

  Eject& owner_;
  QueueComponent component_;
  Ring<Value> data_;     // band 0
  Ring<Value> control_;  // band 1: served first
};

// The channel map of either passive end. Paper §5 makes passive output and
// passive input duals, so StreamServer and StreamAcceptor keep the same map:
// the owner, the wire-identifier table and one `Channel` per declared name.
// `Channel` is a BandedChannel plus the end's own fields, and supplies
//   static constexpr ChannelOptions kDefaults;  // DeclareChannel's default
//   void Save(Value&) const;                    // its share of a checkpoint,
//   void Restore(const Value&);                 // queue contents included
template <typename Channel>
class PassiveEnd {
 public:
  explicit PassiveEnd(Eject& owner) : owner_(owner) {}
  PassiveEnd(const PassiveEnd&) = delete;
  PassiveEnd& operator=(const PassiveEnd&) = delete;

  void DeclareChannel(std::string name,
                      const ChannelOptions& options = Channel::kDefaults) {
    bool fresh = table_.Declare(name, options.capability_only);
    assert(fresh && "channel declared twice");
    (void)fresh;
    channels_.try_emplace(std::move(name), owner_, options);
  }

  bool HasChannel(std::string_view name) const { return Find(name) != nullptr; }
  // Items queued on `channel`, both bands (0 if undeclared).
  size_t buffered(std::string_view channel) const {
    const Channel* ch = Find(channel);
    return ch == nullptr ? 0 : ch->Depth();
  }
  FlowLimits limits(std::string_view channel) const {
    const Channel* ch = Find(channel);
    return ch == nullptr ? FlowLimits{} : ch->limits;
  }
  ChannelTable& table() { return table_; }

  // ---- Recovery support: the dynamic state of every channel (positions,
  // queue contents) as a checkpointable Value, and its inverse. Replies the
  // end holds back are excluded: their handles die with a crashed instance
  // and the callers retry.
  Value SaveChannels() const {
    ValueMap state;
    for (const auto& [name, ch] : channels_) {
      Value v;
      ch.Save(v);
      state.emplace(name, std::move(v));
    }
    return Value(std::move(state));
  }
  void RestoreChannels(const Value& state) {
    const ValueMap* map = state.AsMap();
    if (map == nullptr) {
      return;
    }
    for (const auto& [name, v] : *map) {
      // The channel set is part of the type, not the checkpoint.
      if (Channel* ch = Find(name)) {
        ch->Restore(v);
      }
    }
  }

 protected:
  Channel* Find(std::string_view name) {
    auto it = channels_.find(name);
    return it == channels_.end() ? nullptr : &it->second;
  }
  const Channel* Find(std::string_view name) const {
    auto it = channels_.find(name);
    return it == channels_.end() ? nullptr : &it->second;
  }

  Eject& owner_;
  ChannelTable table_;
  std::map<std::string, Channel, std::less<>> channels_;
};

}  // namespace eden

#endif  // SRC_CORE_CHANNEL_H_
