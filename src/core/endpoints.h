// Pipeline endpoints: sources and sinks for each discipline.
//
//  * VectorSource — passive output ("any Eject which responds to Read
//    invocations is by definition a source", §4). Feeds read-only and
//    conventional pipelines.
//  * PushSource   — active output; feeds write-only and conventional
//    pipelines (through a PassiveBuffer in the latter case).
//  * PullSink     — active input: the pump. "Connecting a terminal to a
//    filter Eject would be rather like starting a pump" (§4).
//  * PushSink     — passive input: "sinks would always be ready to accept
//    them" (§5).
//
// Both sources can annotate their stream with a report channel (every
// `report_every` items) to build the impure pipelines of Figures 3 & 4.
#ifndef SRC_CORE_ENDPOINTS_H_
#define SRC_CORE_ENDPOINTS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/stream_acceptor.h"
#include "src/core/stream_reader.h"
#include "src/core/stream_server.h"
#include "src/core/stream_writer.h"
#include "src/eden/eject.h"

namespace eden {

// --------------------------------------------------------------- VectorSource
struct VectorSourceOptions {
  size_t work_ahead = 4;        // channel hiwat; 0 = fully lazy
  size_t work_ahead_lowat = 0;  // 0 = derive (hiwat/2, min 1)
  bool start_on_demand = false;
  int64_t report_every = 0;     // emit "report" channel progress if > 0
  bool capability_only_channels = false;
  bool sequenced = false;       // number items; keep a replay window
};

class VectorSource : public Eject {
 public:
  static constexpr const char* kType = "VectorSource";

  using Options = VectorSourceOptions;

  VectorSource(Kernel& kernel, ValueList items, Options options = {});

  void OnStart() override;

  StreamServer& server() { return server_; }
  uint64_t produced_count() const { return produced_count_; }

 private:
  Task<void> Produce();

  ValueList items_;
  Options options_;
  StreamServer server_;
  Gate demand_;
  uint64_t produced_count_ = 0;
};

// ----------------------------------------------------------------- PushSource
struct PushSourceOptions {
  int64_t batch = 1;
  int64_t report_every = 0;
  // Fault tolerance, forwarded to the output writers.
  RetryPolicy retry{};
  bool sequenced = false;
};

class PushSource : public Eject {
 public:
  static constexpr const char* kType = "PushSource";

  using Options = PushSourceOptions;

  PushSource(Kernel& kernel, ValueList items, Options options = {});

  void BindOutput(Uid sink, Value sink_channel);
  void BindReport(Uid sink, Value sink_channel);

  void OnStart() override;

  uint64_t produced_count() const { return produced_count_; }

 private:
  Task<void> Produce();

  ValueList items_;
  Options options_;
  std::unique_ptr<StreamWriter> out_;
  std::unique_ptr<StreamWriter> report_;
  Gate bound_;
  uint64_t produced_count_ = 0;
};

// ------------------------------------------------------------------- PullSink
struct PullSinkOptions {
  int64_t batch = 1;
  size_t lookahead = 0;
  // Stop after this many items even if the stream continues (for infinite
  // sources); 0 = run to end-of-stream.
  uint64_t max_items = 0;
  // Fault tolerance, forwarded to the reader.
  RetryPolicy retry{};
  bool sequenced = false;
};

class PullSink : public Eject {
 public:
  static constexpr const char* kType = "PullSink";

  using Options = PullSinkOptions;

  PullSink(Kernel& kernel, Uid source, Value channel, Options options = {});

  void OnStart() override;

  bool done() const { return done_; }
  const ValueList& items() const { return items_; }
  const Status& stream_status() const { return reader_.status(); }
  // Virtual time at which the first item arrived (-1 if none yet). Used by
  // the laziness experiments.
  Tick first_item_at() const { return first_item_at_; }

 private:
  Task<void> Pump();

  Options options_;
  StreamReader reader_;
  ValueList items_;
  bool done_ = false;
  Tick first_item_at_ = -1;
};

// ------------------------------------------------------------------- PushSink
struct PushSinkOptions {
  size_t hiwat = 8;        // block pushers at this depth
  size_t lowat = 0;        // release them below this (0 = derive)
  bool sequenced = false;  // deduplicate redelivered pushes by position
};

class PushSink : public Eject {
 public:
  static constexpr const char* kType = "PushSink";

  using Options = PushSinkOptions;

  explicit PushSink(Kernel& kernel, Options options = {});

  void OnStart() override;

  bool done() const { return done_; }
  const ValueList& items() const { return items_; }
  // Control-band arrivals, kept apart from the data stream (they overtake
  // it, so merging them into `items` would scramble data-order checks).
  const ValueList& control_items() const { return control_items_; }
  // Virtual times at which each control item was drained, index-aligned
  // with control_items() — the bench measures control latency from these.
  const std::vector<Tick>& control_drained_at() const { return control_at_; }
  StreamAcceptor& acceptor() { return acceptor_; }
  Tick first_item_at() const { return first_item_at_; }

 private:
  Task<void> Drain();

  Options options_;
  StreamAcceptor acceptor_;
  ValueList items_;
  ValueList control_items_;
  std::vector<Tick> control_at_;
  bool done_ = false;
  Tick first_item_at_ = -1;
};

}  // namespace eden

#endif  // SRC_CORE_ENDPOINTS_H_
