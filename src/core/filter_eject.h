// Filter Ejects: one per transput discipline, all wrapping the same
// Transform.
//
//  * ReadOnlyFilter     — active input + passive output (paper §4, Figure 2)
//  * WriteOnlyFilter    — passive input + active output (paper §5, Figure 3)
//  * ConventionalFilter — active input + active output  (paper §3, Figure 1;
//                         needs PassiveBuffers for its correspondents)
//
// Because the Transform is shared, a pipeline built in any discipline from
// the same factories produces identical output — the invocation *structure*
// is the only thing that changes, which is precisely the paper's subject.
//
// Recovery mode (FilterRecoveryOptions::enabled) makes a filter
// crash-tolerant: its streams are sequenced, its active sides retry with
// deadlines, and it periodically checkpoints {input position, transform
// state, undelivered output} to the StableStore. A later invocation (a
// neighbour's retry, or a monitor's probe) reactivates it from that
// checkpoint and the stream positions make the restart exactly-once.
#ifndef SRC_CORE_FILTER_EJECT_H_
#define SRC_CORE_FILTER_EJECT_H_

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
// Read-only discipline: the paper's preferred filter shape.
struct ReadOnlyFilterOptions {
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

class ReadOnlyFilter : public Eject {
 public:
  static constexpr const char* kType = "ReadOnlyFilter";

  using Options = ReadOnlyFilterOptions;

  ReadOnlyFilter(Kernel& kernel, std::unique_ptr<Transform> transform,
                 Options options);

  void OnStart() override;
  void OnActivate() override;
  Value SaveState() override;
  void RestoreState(const Value& state) override;

  StreamServer& server() { return server_; }
  const std::string& primary_channel() const { return primary_channel_; }
  uint64_t items_processed() const { return items_processed_; }

 private:
  Task<void> Run();
  Task<void> DoCheckpoint();

  std::unique_ptr<Transform> transform_;
  EmittedItems emitted_;  // one step's output, drained before the next
  Options options_;
  StreamReader reader_;
  StreamServer server_;
  Gate demand_;
  std::string primary_channel_;
  uint64_t items_processed_ = 0;
  bool restored_ = false;  // this incarnation came from a checkpoint
};

// ---------------------------------------------------------------------------
// Write-only discipline: the dual arrangement of §5.
struct WriteOnlyFilterOptions {
  size_t input_hiwat = 8;     // withhold Push replies at this depth
  size_t input_lowat = 0;     // release them below this (0 = derive)
  int64_t batch = 1;  // items per downstream Push
  Tick processing_cost = 0;  // virtual compute per input item
  FilterRecoveryOptions recovery;
};

class WriteOnlyFilter : public Eject {
 public:
  static constexpr const char* kType = "WriteOnlyFilter";

  using Options = WriteOnlyFilterOptions;

  WriteOnlyFilter(Kernel& kernel, std::unique_ptr<Transform> transform,
                  Options options = {});

  // Directs output channel `channel` at `sink` (wire channel `sink_channel`).
  // Must be called before data arrives. Unbound channels discard.
  void BindOutput(const std::string& channel, Uid sink, Value sink_channel);

  void OnStart() override;
  void OnActivate() override;
  Value SaveState() override;
  void RestoreState(const Value& state) override;

  StreamAcceptor& acceptor() { return acceptor_; }
  uint64_t items_processed() const { return items_processed_; }

 private:
  Task<void> Run();
  Task<void> DoCheckpoint();

  std::unique_ptr<Transform> transform_;
  EmittedItems emitted_;  // one step's output, drained before the next
  Options options_;
  StreamAcceptor acceptor_;
  std::map<std::string, std::unique_ptr<StreamWriter>> writers_;
  uint64_t items_processed_ = 0;
  bool restored_ = false;
};

// ---------------------------------------------------------------------------
// Conventional discipline: active both ways; the data pump of §3.
class ConventionalFilter : public Eject {
 public:
  static constexpr const char* kType = "ConventionalFilter";

  struct Options {
    Uid source;
    Value source_channel = Value(std::string(kChanOut));
    int64_t batch = 1;
    size_t lookahead = 0;
    Tick processing_cost = 0;  // virtual compute per input item
    FilterRecoveryOptions recovery;
  };

  ConventionalFilter(Kernel& kernel, std::unique_ptr<Transform> transform,
                     Options options);

  // The downstream correspondent must perform passive input (a PassiveBuffer
  // or a PushSink).
  void BindOutput(const std::string& channel, Uid sink, Value sink_channel);

  void OnStart() override;
  void OnActivate() override;
  Value SaveState() override;
  void RestoreState(const Value& state) override;

  uint64_t items_processed() const { return items_processed_; }

 private:
  Task<void> Run();
  Task<void> DoCheckpoint();

  std::unique_ptr<Transform> transform_;
  EmittedItems emitted_;  // one step's output, drained before the next
  Options options_;
  StreamReader reader_;
  std::map<std::string, std::unique_ptr<StreamWriter>> writers_;
  uint64_t items_processed_ = 0;
  bool restored_ = false;
};

}  // namespace eden

#endif  // SRC_CORE_FILTER_EJECT_H_
