// Pipeline builder: realizes Figures 1 and 2 (and the write-only §5 variant)
// from a single specification.
//
// Given n transform factories and an input vector, builds:
//
//   kReadOnly     (Fig. 2):  VectorSource <- F1 <- ... <- Fn <- PullSink
//                            n+2 Ejects, n+1 Transfer invocations per datum.
//   kWriteOnly    (§5 dual): PushSource -> F1 -> ... -> Fn -> PushSink
//                            n+2 Ejects, n+1 Push invocations per datum.
//   kConventional (Fig. 1):  PushSource -> p0 -> F1 -> p1 -> ... -> Fn -> pn
//                            -> PullSink — every junction gets a
//                            PassiveBuffer: 2n+3 Ejects, 2n+2 invocations
//                            per datum.
//
// The returned handle exposes the collected output and the Eject census so
// tests and benchmarks can check both the data and the §4 cost claims.
#ifndef SRC_CORE_PIPELINE_H_
#define SRC_CORE_PIPELINE_H_

#include <string>
#include <vector>

#include "src/core/endpoints.h"
#include "src/core/filter_eject.h"
#include "src/core/passive_buffer.h"
#include "src/core/transform.h"
#include "src/eden/kernel.h"
#include "src/eden/verify/lint.h"

namespace eden {

enum class Discipline { kReadOnly, kWriteOnly, kConventional };

std::string_view DisciplineName(Discipline discipline);

// Fault tolerance for pipelines. When enabled: every stream is sequenced,
// active stream ends carry deadlines and retry with exponential backoff,
// filters checkpoint their {input position, transform state, undelivered
// output} every `checkpoint_every` items and register for reactivation, and
// a monitor Eject probes the filters so a crashed one is reactivated even
// when no neighbour would ever invoke it (the conventional discipline's
// filters are invoked by nobody). Under these rules a pipeline run with
// injected message loss and filter crashes produces output byte-identical
// to a fault-free run.
struct PipelineRecoveryOptions {
  bool enabled = false;
  // Per Transfer/Push invocation. The deadline must exceed the longest
  // legitimate reply withholding (flow control, §4's partial vacuum) or
  // fault-free runs will record spurious timeouts.
  RetryPolicy retry{.deadline = 25'000, .attempts = 8, .backoff = 2'000};
  uint64_t checkpoint_every = 16;
  Tick probe_interval = 10'000;  // monitor liveness probe period
};

struct PipelineOptions {
  Discipline discipline = Discipline::kReadOnly;
  int64_t batch = 1;           // items per Transfer/Push
  size_t lookahead = 0;        // reader prefetch (read-only & conventional)
  size_t work_ahead = 4;       // producer-side buffering beyond demand (hiwat)
  size_t work_ahead_lowat = 0; // resume work-ahead below this (0 = derive)
  size_t pipe_capacity = 16;   // PassiveBuffer hiwat, both faces (conventional)
  size_t pipe_lowat = 0;       // release parked pushers below this (0 = derive)
  size_t acceptor_capacity = 8;   // passive-input hiwat (write-only)
  size_t acceptor_lowat = 0;      // release withheld pushes below this
  bool start_on_demand = false;  // §4 laziness (read-only only)
  Tick processing_cost = 0;      // virtual compute per item in every filter
  // Place every Eject on its own node (distribution experiments).
  bool distinct_nodes = false;
  // With distinct_nodes under a sharded kernel: pin every pipeline node to
  // this shard (Kernel::AddNode shard hint), so a chain whose stages only
  // ever talk to their neighbours stops paying a cross-shard hop per edge
  // (the ASC011 lint points here). -1 = default round-robin placement.
  // Placement never enters event keys, so output and virtual time are
  // byte-identical either way — only cross_shard_sends drops.
  int partition_shard = -1;
  // Run the PipelineLinter over the plan before creating any Eject, and
  // refuse activation (empty handle, lint_rejected set, report attached) if
  // it finds errors. Catches e.g. recovery knob inconsistencies (ASC006)
  // before the kernel is perturbed.
  bool lint_before_activate = false;
  PipelineRecoveryOptions recovery;
};

struct PipelineHandle {
  Discipline discipline = Discipline::kReadOnly;
  std::vector<Uid> ejects;          // all Ejects, source..sink order
  // Human-readable role of each Eject, parallel to `ejects` ("source",
  // "filter1", "pipe0", "sink", ...): the plan's stage names.
  std::vector<std::string> stage_names;
  size_t passive_buffer_count = 0;  // pipes interposed (conventional only)
  Uid source;
  Uid sink;
  // The recovery monitor (nil unless recovery was enabled). Not part of
  // `ejects`: it is scaffolding, not a pipeline stage.
  Uid monitor;
  // Exactly one of these is non-null, depending on the sink kind.
  PullSink* pull_sink = nullptr;
  PushSink* push_sink = nullptr;
  // Filled when PipelineOptions::lint_before_activate was set. When the
  // report has errors, lint_rejected is true and nothing was constructed.
  verify::LintReport lint;
  bool lint_rejected = false;

  size_t eject_count() const { return ejects.size(); }
  bool done() const {
    return pull_sink != nullptr ? pull_sink->done()
                                : (push_sink != nullptr && push_sink->done());
  }
  const ValueList& output() const {
    static const ValueList kEmpty;
    if (pull_sink != nullptr) {
      return pull_sink->items();
    }
    return push_sink != nullptr ? push_sink->items() : kEmpty;
  }
  Tick first_item_at() const {
    return pull_sink != nullptr ? pull_sink->first_item_at()
                                : (push_sink != nullptr ? push_sink->first_item_at() : -1);
  }

  // Registers every stage's role name (plus the monitor, if any) with an
  // instrument — tracer, metrics, invariant monitor or telemetry — so trace
  // charts and metric snapshots print "filter1" instead of a raw UID.
  template <typename Instrument>
  void LabelAll(Instrument& instrument) const {
    for (size_t i = 0; i < ejects.size() && i < stage_names.size(); ++i) {
      instrument.Label(ejects[i], stage_names[i]);
    }
    if (!monitor.IsNil()) {
      instrument.Label(monitor, "monitor");
    }
  }
};

// Builds the pipeline and starts it; run the kernel until handle.done().
// The pipeline is the instantiated PlanTopology(stages.size(), options,
// kernel) (pipeline_verify.h): one Eject per plan stage, in plan order.
PipelineHandle BuildPipeline(Kernel& kernel, ValueList input,
                             const std::vector<TransformFactory>& stages,
                             const PipelineOptions& options = PipelineOptions());

// Convenience: builds, runs to completion, and returns the collected output.
ValueList RunPipeline(Kernel& kernel, ValueList input,
                      const std::vector<TransformFactory>& stages,
                      const PipelineOptions& options = PipelineOptions());

// Closed-form §4 predictions, used by tests and reported by benchmarks.
// Invocations are Transfer/Push messages per datum end to end (batch 1).
size_t PredictedInvocationsPerDatum(Discipline discipline, size_t stage_count);
size_t PredictedEjectCount(Discipline discipline, size_t stage_count);

}  // namespace eden

#endif  // SRC_CORE_PIPELINE_H_
