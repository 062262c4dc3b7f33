// The static topology model the verification layer analyses.
//
// Paper §4 classifies every stream end as active or passive, and §5 derives
// the structural rules from that classification: a read-only stream (passive
// output, active input) admits arbitrary fan-in but no fan-out; the
// write-only dual admits fan-out but no fan-in; and distinct channel
// identifiers — UIDs minted as capabilities — are the one sanctioned way to
// restore multiple outputs. A TopologySpec captures exactly the facts those
// rules quantify over: the stages, how each of their ends behaves, which
// wires connect them, and which channel identifier each wire is qualified
// by. It is deliberately independent of the runtime types (core builds one
// from a PipelineOptions plan or a finished PipelineHandle; tests build them
// by hand), so the linter can reject a bad wiring *before* any Eject exists.
#ifndef SRC_EDEN_VERIFY_TOPOLOGY_H_
#define SRC_EDEN_VERIFY_TOPOLOGY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/eden/clock.h"
#include "src/eden/cost_model.h"
#include "src/eden/message.h"
#include "src/eden/uid.h"

namespace eden::verify {

// Which of the paper's figures the topology instantiates. kMixed covers
// hand-wired graphs (shell pipelines with report channels, tests).
enum class Flavor { kReadOnly, kWriteOnly, kConventional, kMixed };

std::string_view FlavorName(Flavor flavor);

// One pipeline stage, described by how its stream ends behave (§4's
// active/passive taxonomy — the behaviour, not the implementation type).
struct StageSpec {
  Uid uid;
  std::string name;  // "source", "filter1", "pipe0", ... (diagnostics)
  std::string type;  // Eject type name, informational

  bool is_source = false;  // injects data into the graph from outside
  bool is_sink = false;    // removes data from the graph

  // Stream ends this stage owns. A read-only filter is active_input +
  // passive_output; the write-only dual is passive_input + active_output; a
  // PassiveBuffer is passive both ways; a conventional filter active both.
  bool active_input = false;    // issues Transfer invocations (reader)
  bool passive_output = false;  // answers Transfer invocations (server)
  bool active_output = false;   // issues Push invocations (writer)
  bool passive_input = false;   // answers Push invocations (acceptor)

  // §4 laziness: the stage does no work until the first Transfer arrives.
  // Such a stage is only ever started by demand reaching it from a sink.
  bool lazy = false;

  // Flow-control watermarks on the stage's bounded queue, when it declares
  // one (passive inputs withholding Push replies at hiwat; work-ahead
  // outputs parking their producer at hiwat). `bounded` false = the stage
  // declares no watermarked queue and ASC009 does not examine it.
  bool bounded = false;
  size_t hiwat = 0;  // block/withhold producers at this depth
  size_t lowat = 0;  // release them below this (0 = derived at runtime)

  // Node placement, for the concurrency lints (ASC010-ASC012). `node` is the
  // kernel node the stage lives on — for a *plan* it is the id AddNode will
  // return when the builder places the stage (distinct_nodes: the kernel's
  // node count + position). `shard_hint` mirrors
  // Kernel::AddNode's hint: >= 0 pins the node to `hint % shards` instead of
  // the default `node % shards` round robin.
  NodeId node = 0;
  int shard_hint = -1;
};

// One wire. `from` is always the data producer and `to` the data consumer;
// `mode` records which end is active (who invokes whom), which is the whole
// subject of the paper.
struct EdgeSpec {
  enum class Mode {
    kPull,  // `to` invokes Transfer on `from`  (read-only discipline)
    kPush,  // `from` invokes Push on `to`      (write-only discipline)
  };

  Uid from;
  Uid to;
  Mode mode = Mode::kPull;
  // The channel identifier qualifying this wire, as the §5 rules see it:
  // either a declared channel name (integer/string spellings collapse to
  // this) or a capability UID minted by OpenChannel. Two wires with the
  // same name and no capability share one stream; distinct capability UIDs
  // are distinct streams even under one name.
  std::string channel = "out";
  Uid channel_uid;  // non-nil = capability-mediated (§5)
};

// The recovery knobs the linter cross-checks (mirrors the effective_retry()
// gating of the filter options: when `enabled` is false the pipeline plan
// zeroes every other knob, so a spec carrying nonzero knobs with
// enabled=false records a configuration the runtime would silently ignore).
struct RecoveryKnobs {
  bool enabled = false;
  RetryPolicy retry{};
  uint64_t checkpoint_every = 0;
  Tick probe_interval = 0;
};

struct TopologySpec {
  Flavor flavor = Flavor::kMixed;
  std::vector<StageSpec> stages;
  std::vector<EdgeSpec> edges;
  RecoveryKnobs recovery;

  // Concurrency context for ASC010-ASC012: the shard count, the configured
  // lookahead, and the cost model the topology will run under. The rules are
  // skipped entirely unless `has_concurrency` is set — a bare wiring spec
  // (hand-built tests, the legacy plan bridge) stays exactly as analysable
  // as before. The Kernel-taking PlanTopology overloads fill these in.
  bool has_concurrency = false;
  int shards = 1;
  Tick lookahead = 0;  // KernelOptions::lookahead; 0 = derive the safe default
  CostModel costs;

  StageSpec& AddStage(StageSpec stage);
  EdgeSpec& AddEdge(EdgeSpec edge);
  // Convenience for hand-built specs (tests, shell): wire `from` -> `to`.
  EdgeSpec& Connect(const Uid& from, const Uid& to, EdgeSpec::Mode mode,
                    std::string channel = "out", Uid channel_uid = Uid());

  const StageSpec* Find(const Uid& uid) const;
  std::string NameOf(const Uid& uid) const;  // stage name or short UID
  // The shard a stage's node lands on under this spec's shard count
  // (mirrors Kernel::ShardOf including the shard_hint override).
  int ShardOf(const StageSpec& stage) const;
};

}  // namespace eden::verify

#endif  // SRC_EDEN_VERIFY_TOPOLOGY_H_
