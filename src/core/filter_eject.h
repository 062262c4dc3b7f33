// Filter Ejects: one Transform between an input end and an output end.
//
//  * ReadOnlyFilter     — active input + passive output (paper §4, Figure 2)
//  * WriteOnlyFilter    — passive input + active output (paper §5, Figure 3)
//  * ConventionalFilter — active input + active output  (paper §3, Figure 1;
//                         needs PassiveBuffers for its correspondents)
//
// All three are one Filter<Options>: one process loop, one checkpoint and
// one saved state, over the two ends each discipline's Options names. The
// Transform is shared too, so a pipeline built in any discipline from the
// same factories produces identical output — the invocation *structure* is
// the only thing that changes, which is precisely the paper's subject. The
// two policies that do differ live in the end that owns them: a done
// Transform stops an active input but drains a passive one, and an upstream
// failure aborts a passive output but ends an active one cleanly.
//
// Recovery mode (FilterRecoveryOptions::enabled) makes a filter
// crash-tolerant: its streams are sequenced, its active sides retry with
// deadlines, and it periodically checkpoints {input position, transform
// state, undelivered output} to the StableStore. A later invocation (a
// neighbour's retry, or a monitor's probe) reactivates it from that
// checkpoint and the stream positions make the restart exactly-once.
#ifndef SRC_CORE_FILTER_EJECT_H_
#define SRC_CORE_FILTER_EJECT_H_

#include <cassert>
#include <concepts>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/stream_acceptor.h"
#include "src/core/stream_reader.h"
#include "src/core/stream_server.h"
#include "src/core/stream_writer.h"
#include "src/core/transform.h"
#include "src/eden/eject.h"
#include "src/eden/sync.h"

namespace eden {

// Items emitted by one Transform step, tagged with their channel.
using EmittedItems = std::vector<std::pair<std::string, Value>>;

// One Transform step into `emitted`, cleared first; returns it. Each filter
// keeps one buffer and drains it before its next step, so the buffer's
// storage is reused rather than allocated per item.
EmittedItems& ApplyItem(Transform& transform, const Value& item, EmittedItems& emitted);
EmittedItems& ApplyEnd(Transform& transform, EmittedItems& emitted);

// Shared fault-tolerance knobs for all three filter shapes.
struct FilterRecoveryOptions {
  // Master switch: sequence the streams, checkpoint periodically, answer
  // liveness probes ("Ping").
  bool enabled = false;
  // Input items between checkpoints.
  uint64_t checkpoint_every = 16;
  // Per-invocation deadline / retry policy for the filter's *active* stream
  // ends (reader Transfers, writer Pushes).
  RetryPolicy retry{};
  // Reactivation type name to register the Eject under. Must be unique per
  // instance within a kernel (a checkpoint names its type, and every
  // instance has different wiring). Empty = use the class type name, which
  // leaves the instance unrecoverable unless registered externally.
  std::string eject_type;

  // The retry policy applies only while `enabled` is set. A classic filter
  // must never time out a Transfer: a hold-back stage downstream (sort,
  // tail) legitimately parks requests for the entire streaming phase, and
  // without sequence numbers a timed-out request's eventual reply is item
  // loss, not a retry.
  RetryPolicy effective_retry() const { return enabled ? retry : RetryPolicy{}; }
};

// ---------------------------------------------------------------------------
// Input ends. Each yields the next item (nullopt at end), saves and restores
// its position, and marks positions durable once a checkpoint covers them.

// Active input: a StreamReader issuing Transfers upstream. A done Transform
// stops it: no further Transfer is issued, so even an infinite upstream ends.
class ActiveInput {
 public:
  static constexpr bool kDrainsWhenDone = false;

  template <typename Options>
  ActiveInput(Eject& owner, const Options& options, const Transform&)
      : reader_(owner, options.source, options.source_channel,
                StreamReader::Options{options.batch, options.lookahead,
                                      options.recovery.effective_retry(),
                                      options.recovery.enabled}) {}

  Task<std::optional<Value>> Next() { return reader_.Next(); }
  const Status& status() const { return reader_.status(); }
  uint64_t position() const { return reader_.consumed(); }
  void SetDurable(uint64_t pos) { reader_.set_durable(pos); }
  Value Save() const { return Value(reader_.consumed()); }
  void Restore(const Value& in) {
    uint64_t pos = static_cast<uint64_t>(in.IntOr(0));
    reader_.ResumeAt(pos);
    reader_.set_durable(pos);
  }

 private:
  StreamReader reader_;
};

// Passive input: a StreamAcceptor taking Pushes on kChanIn. A done Transform
// cannot stop an active-output upstream, so the input drains and discards.
class PassiveInput {
 public:
  static constexpr bool kDrainsWhenDone = true;

  template <typename Options>
  PassiveInput(Eject& owner, const Options& options, const Transform&)
      : acceptor_(owner) {
    acceptor_.DeclareChannel(std::string(kChanIn),
                             ChannelOptions{.hiwat = options.input_hiwat,
                                            .lowat = options.input_lowat,
                                            .sequenced = options.recovery.enabled});
    acceptor_.InstallOps();
  }

  Task<std::optional<Value>> Next() { return acceptor_.Next(kChanIn); }
  // A pusher that fails just stops pushing: the acceptor sees no error.
  Status status() const { return Status::Ok(); }
  uint64_t position() const { return acceptor_.accepted(kChanIn); }
  void SetDurable(uint64_t pos) { acceptor_.SetDurable(kChanIn, pos); }
  Value Save() const { return acceptor_.SaveChannels(); }
  void Restore(const Value& in) { acceptor_.RestoreChannels(in); }

  StreamAcceptor& acceptor() { return acceptor_; }

 private:
  StreamAcceptor acceptor_;
};

// ---------------------------------------------------------------------------
// Output ends. Write returns the Task to await; an invalid Task means the
// item was dropped. Ready and Close return an invalid Task when there is
// nothing to wait for (awaiting one does not suspend).

// Passive output: a StreamServer answering Transfers on every Transform
// output channel, behind §4's demand Gate. An upstream failure aborts every
// channel, so the reader downstream sees the error, not a clean end.
class PassiveOutput {
 public:
  static constexpr const char* kStateKey = "server";

  template <typename Options>
  PassiveOutput(Eject& owner, const Options& options, const Transform& transform)
      : server_(owner), demand_(owner) {
    std::vector<std::string> channels = transform.output_channels();
    assert(!channels.empty());
    primary_channel_ = channels.front();
    for (const std::string& name : channels) {
      server_.DeclareChannel(
          name, ChannelOptions{.hiwat = options.work_ahead,
                               .lowat = options.work_ahead_lowat,
                               .capability_only = options.capability_only_channels,
                               .sequenced = options.recovery.enabled});
    }
    server_.InstallOps();
    if (options.start_on_demand) {
      server_.set_on_first_demand([this] { demand_.Open(); });
    } else {
      demand_.Open();
    }
  }

  // §4 laziness: "each Eject may be programmed so as not to do any work
  // until it is asked for output."
  Task<void> Ready() { return demand_.Wait(); }
  Task<void> Write(const std::string& channel, Value&& item) {
    return server_.Write(channel, std::move(item));
  }
  // On an upstream failure, aborts every channel and returns true: the crash
  // propagates instead of masquerading as a clean end.
  bool Aborted(const Status& upstream) {
    if (upstream.ok_or_end()) {
      return false;
    }
    server_.AbortAll(upstream);
    return true;
  }
  Task<void> Close() {
    server_.CloseAll();
    return {};
  }
  Value Save() const { return server_.SaveChannels(); }
  void Restore(const Value& out) { server_.RestoreChannels(out); }

  StreamServer& server() { return server_; }
  const std::string& primary_channel() const { return primary_channel_; }

 private:
  StreamServer server_;
  Gate demand_;
  std::string primary_channel_;
};

// Active output: one StreamWriter per bound channel, pushing downstream;
// items on an unbound channel are dropped. An upstream failure ends the
// writers cleanly: §5's Push carries no error, so the sink cannot tell a
// truncated stream from a finished one.
class ActiveOutput {
 public:
  static constexpr const char* kStateKey = "out";

  template <typename Options>
  ActiveOutput(Eject&, const Options&, const Transform&) {}

  void Bind(Eject& owner, const std::string& channel, Uid sink, Value sink_channel,
            const StreamWriter::Options& options) {
    writers_[channel] =
        std::make_unique<StreamWriter>(owner, sink, std::move(sink_channel), options);
  }

  Task<void> Ready() { return {}; }
  Task<Status> Write(const std::string& channel, Value&& item) {
    auto it = writers_.find(channel);
    return it == writers_.end() ? Task<Status>() : it->second->Write(std::move(item));
  }
  bool Aborted(const Status&) { return false; }  // never: see above
  Task<void> Close();
  Value Save() const;
  void Restore(const Value& out);

 private:
  std::map<std::string, std::unique_ptr<StreamWriter>> writers_;
};

// ---------------------------------------------------------------------------
// The filter: one Eject running the Transform between its two ends.
template <typename DisciplineOptions>
class Filter : public Eject {
 public:
  using Options = DisciplineOptions;
  using Input = typename Options::Input;
  using Output = typename Options::Output;
  static constexpr const char* kType = Options::kType;

  Filter(Kernel& kernel, std::unique_ptr<Transform> transform, Options options = {});

  void OnStart() override;
  void OnActivate() override;
  Value SaveState() override;
  void RestoreState(const Value& state) override;

  // Each end's own accessors, on the filters that have that end.
  StreamServer& server() requires std::same_as<Output, PassiveOutput> {
    return output_.server();
  }
  const std::string& primary_channel() const requires std::same_as<Output, PassiveOutput> {
    return output_.primary_channel();
  }
  StreamAcceptor& acceptor() requires std::same_as<Input, PassiveInput> {
    return input_.acceptor();
  }
  // Directs output channel `channel` at `sink` (wire channel `sink_channel`),
  // whose input must be passive (a PassiveBuffer or a PushSink). Must be
  // called before data arrives. Unbound channels discard.
  void BindOutput(const std::string& channel, Uid sink, Value sink_channel)
    requires std::same_as<Output, ActiveOutput>
  {
    output_.Bind(*this, channel, sink, std::move(sink_channel),
                 StreamWriter::Options{options_.batch, options_.recovery.effective_retry(),
                                       options_.recovery.enabled});
  }

 private:
  Task<void> Run();
  Task<void> DoCheckpoint();

  std::unique_ptr<Transform> transform_;
  EmittedItems emitted_;  // one step's output, drained before the next
  Options options_;
  Input input_;
  Output output_;
  uint64_t items_processed_ = 0;
  bool restored_ = false;  // this incarnation came from a checkpoint
};

// ---------------------------------------------------------------------------
// Read-only discipline: the paper's preferred filter shape.
struct ReadOnlyFilterOptions {
  using Input = ActiveInput;
  using Output = PassiveOutput;
  static constexpr const char* kType = "ReadOnlyFilter";

  Uid source;                       // upstream Eject (must passively output)
  Value source_channel = Value(std::string(kChanOut));
  int64_t batch = 1;                // items per upstream Transfer
  size_t lookahead = 0;             // reader prefetch depth
  size_t work_ahead = 4;            // output hiwat beyond demand (0 = lazy)
  size_t work_ahead_lowat = 0;      // resume producing below this (0 = derive)
  bool start_on_demand = false;     // do no work until first Transfer (§4)
  bool capability_only_channels = false;  // §5 channel security
  // Virtual compute charged per input item (models the filter's real work;
  // what work-ahead buffering overlaps with communication, §4).
  Tick processing_cost = 0;
  FilterRecoveryOptions recovery;
};

// Write-only discipline: the dual arrangement of §5.
struct WriteOnlyFilterOptions {
  using Input = PassiveInput;
  using Output = ActiveOutput;
  static constexpr const char* kType = "WriteOnlyFilter";

  size_t input_hiwat = 8;     // withhold Push replies at this depth
  size_t input_lowat = 0;     // release them below this (0 = derive)
  int64_t batch = 1;  // items per downstream Push
  Tick processing_cost = 0;  // virtual compute per input item
  FilterRecoveryOptions recovery;
};

// Conventional discipline: active both ways; the data pump of §3.
struct ConventionalFilterOptions {
  using Input = ActiveInput;
  using Output = ActiveOutput;
  static constexpr const char* kType = "ConventionalFilter";

  Uid source;
  Value source_channel = Value(std::string(kChanOut));
  int64_t batch = 1;
  size_t lookahead = 0;
  Tick processing_cost = 0;  // virtual compute per input item
  FilterRecoveryOptions recovery;
};

using ReadOnlyFilter = Filter<ReadOnlyFilterOptions>;
using WriteOnlyFilter = Filter<WriteOnlyFilterOptions>;
using ConventionalFilter = Filter<ConventionalFilterOptions>;

extern template class Filter<ReadOnlyFilterOptions>;
extern template class Filter<WriteOnlyFilterOptions>;
extern template class Filter<ConventionalFilterOptions>;

}  // namespace eden

#endif  // SRC_CORE_FILTER_EJECT_H_
