// Static verification layer tests: one positive and one negative case per
// lint rule (ASC001..ASC012), the pipeline plan/describe bridge, the
// lint_before_activate gate, the lockdep analyzer against both its seeded
// self-test and real Mutexes on a live kernel (sequential and sharded), the
// cross-shard determinism auditor (ShardRaceAnalyzer + RunDigest
// certificates), and a drift guard keeping the STATIC_ANALYSIS.md rule
// table in sync with PipelineLinter::Rules().
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/pipeline.h"
#include "src/core/pipeline_verify.h"
#include "src/eden/analysis.h"
#include "src/eden/kernel.h"
#include "src/eden/monitor.h"
#include "src/eden/sync.h"
#include "src/eden/trace.h"
#include "src/eden/verify/lint.h"
#include "src/eden/verify/lockdep.h"
#include "src/eden/verify/shard_audit.h"
#include "src/eden/verify/topology.h"
#include "src/shell/shell.h"

namespace eden {
namespace {

using verify::EdgeSpec;
using verify::Flavor;
using verify::LintReport;
using verify::LockOrderAnalyzer;
using verify::PipelineLinter;
using verify::Severity;
using verify::StageSpec;
using verify::TopologySpec;

Uid U(uint64_t n) { return Uid(0, n); }

// source <- filter1 <- sink, the Figure 2 read-only shape. Lints clean.
TopologySpec ReadOnlyChain() {
  TopologySpec t;
  t.flavor = Flavor::kReadOnly;
  t.AddStage({.uid = U(1), .name = "source", .type = "VectorSource",
              .is_source = true, .passive_output = true});
  t.AddStage({.uid = U(2), .name = "filter1", .type = "ReadOnlyFilter",
              .active_input = true, .passive_output = true});
  t.AddStage({.uid = U(3), .name = "sink", .type = "PullSink",
              .is_sink = true, .active_input = true});
  t.Connect(U(1), U(2), EdgeSpec::Mode::kPull);
  t.Connect(U(2), U(3), EdgeSpec::Mode::kPull);
  return t;
}

// source -> filter1 -> sink, the §5 write-only dual. Lints clean.
TopologySpec WriteOnlyChain() {
  TopologySpec t;
  t.flavor = Flavor::kWriteOnly;
  t.AddStage({.uid = U(1), .name = "source", .type = "PushSource",
              .is_source = true, .active_output = true});
  t.AddStage({.uid = U(2), .name = "filter1", .type = "WriteOnlyFilter",
              .active_output = true, .passive_input = true});
  t.AddStage({.uid = U(3), .name = "sink", .type = "PushSink",
              .is_sink = true, .passive_input = true});
  t.Connect(U(1), U(2), EdgeSpec::Mode::kPush, "in");
  t.Connect(U(2), U(3), EdgeSpec::Mode::kPush, "in");
  return t;
}

TEST(LintTest, CleanChainsAreWellFormed) {
  for (const TopologySpec& t : {ReadOnlyChain(), WriteOnlyChain()}) {
    LintReport report = PipelineLinter().Lint(t);
    EXPECT_TRUE(report.ok()) << report.ToString();
    EXPECT_TRUE(report.diagnostics.empty()) << report.ToString();
    EXPECT_NE(report.ToString().find("topology is well-formed"),
              std::string::npos);
  }
}

TEST(LintTest, ASC001RejectsReadOnlyFanOut) {
  // A second reader pulling the same (server, channel) stream: §5 forbids it.
  TopologySpec t = ReadOnlyChain();
  t.AddStage({.uid = U(4), .name = "sink2", .type = "PullSink",
              .is_sink = true, .active_input = true});
  t.Connect(U(2), U(4), EdgeSpec::Mode::kPull);
  LintReport report = PipelineLinter().Lint(t);
  ASSERT_TRUE(report.HasRule("ASC001")) << report.ToString();
  EXPECT_GE(report.error_count(), 1u);
  EXPECT_NE(report.ToString().find("fan-out"), std::string::npos);
}

TEST(LintTest, ASC001AllowsCapabilityMediatedFanOut) {
  // Same wiring, but each reader presents a distinct capability UID — the
  // sanctioned §5 escape (OpenChannel mints one stream per consumer).
  TopologySpec t = ReadOnlyChain();
  t.AddStage({.uid = U(4), .name = "sink2", .type = "PullSink",
              .is_sink = true, .active_input = true});
  t.edges.pop_back();  // drop filter1 -> sink
  t.Connect(U(2), U(3), EdgeSpec::Mode::kPull, "out", U(100));
  t.Connect(U(2), U(4), EdgeSpec::Mode::kPull, "out", U(101));
  LintReport report = PipelineLinter().Lint(t);
  EXPECT_FALSE(report.HasRule("ASC001")) << report.ToString();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(LintTest, ASC002RejectsWriteOnlyFanIn) {
  // A second writer pushing the same (acceptor, channel) stream: the
  // write-only dual of ASC001.
  TopologySpec t = WriteOnlyChain();
  t.AddStage({.uid = U(4), .name = "source2", .type = "PushSource",
              .is_source = true, .active_output = true});
  t.Connect(U(4), U(3), EdgeSpec::Mode::kPush, "in");
  LintReport report = PipelineLinter().Lint(t);
  ASSERT_TRUE(report.HasRule("ASC002")) << report.ToString();
  EXPECT_GE(report.error_count(), 1u);
  EXPECT_NE(report.ToString().find("fan-in"), std::string::npos);
}

TEST(LintTest, ASC002AllowsCapabilityMediatedFanIn) {
  TopologySpec t = WriteOnlyChain();
  t.AddStage({.uid = U(4), .name = "source2", .type = "PushSource",
              .is_source = true, .active_output = true});
  t.edges.pop_back();  // drop filter1 -> sink
  t.Connect(U(2), U(3), EdgeSpec::Mode::kPush, "in", U(100));
  t.Connect(U(4), U(3), EdgeSpec::Mode::kPush, "in", U(101));
  LintReport report = PipelineLinter().Lint(t);
  EXPECT_FALSE(report.HasRule("ASC002")) << report.ToString();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(LintTest, ASC003RejectsCycles) {
  TopologySpec t = ReadOnlyChain();
  // sink feeds data back to the source: demand can never quiesce.
  t.Connect(U(3), U(1), EdgeSpec::Mode::kPush, "back");
  LintReport report = PipelineLinter().Lint(t);
  EXPECT_TRUE(report.HasRule("ASC003")) << report.ToString();
  EXPECT_FALSE(PipelineLinter().Lint(ReadOnlyChain()).HasRule("ASC003"));
}

TEST(LintTest, ASC004FlagsOrphanUnreachableAndDeadEnd) {
  // Orphan: declared but wired to nothing.
  TopologySpec orphan = ReadOnlyChain();
  orphan.AddStage({.uid = U(9), .name = "stray", .type = "ReadOnlyFilter",
                   .active_input = true, .passive_output = true});
  LintReport report = PipelineLinter().Lint(orphan);
  ASSERT_TRUE(report.HasRule("ASC004")) << report.ToString();
  EXPECT_NE(report.ToString().find("orphan"), std::string::npos);

  // Unreachable: wired, but no source transitively feeds it.
  TopologySpec unreachable = ReadOnlyChain();
  unreachable.AddStage({.uid = U(9), .name = "late", .type = "ReadOnlyFilter",
                        .active_input = true, .passive_output = true});
  unreachable.Connect(U(9), U(3), EdgeSpec::Mode::kPull, "side");
  report = PipelineLinter().Lint(unreachable);
  ASSERT_TRUE(report.HasRule("ASC004")) << report.ToString();
  EXPECT_NE(report.ToString().find("unreachable"), std::string::npos);

  // Dead end: reachable from a source but no sink observes it — a warning,
  // not an error (discarding data is legal, just suspicious).
  TopologySpec deadend = ReadOnlyChain();
  deadend.AddStage({.uid = U(9), .name = "drop", .type = "ReadOnlyFilter",
                    .active_input = true, .passive_output = true});
  deadend.Connect(U(1), U(9), EdgeSpec::Mode::kPull, "side", U(100));
  report = PipelineLinter().Lint(deadend);
  ASSERT_TRUE(report.HasRule("ASC004")) << report.ToString();
  EXPECT_EQ(report.error_count(), 0u) << report.ToString();
  EXPECT_GE(report.warning_count(), 1u);
  EXPECT_NE(report.ToString().find("dead-end"), std::string::npos);

  // Undeclared endpoint: a wire naming a stage the spec never declared.
  TopologySpec dangling = ReadOnlyChain();
  dangling.Connect(U(2), U(42), EdgeSpec::Mode::kPull, "side", U(100));
  report = PipelineLinter().Lint(dangling);
  ASSERT_TRUE(report.HasRule("ASC004")) << report.ToString();
  EXPECT_NE(report.ToString().find("undeclared"), std::string::npos);
}

TEST(LintTest, ASC005RejectsDuplicateCapabilityClaims) {
  TopologySpec t = ReadOnlyChain();
  t.AddStage({.uid = U(4), .name = "sink2", .type = "PullSink",
              .is_sink = true, .active_input = true});
  t.edges.pop_back();
  // Both readers present the *same* capability UID: they alias one stream
  // while claiming to be distinct.
  t.Connect(U(2), U(3), EdgeSpec::Mode::kPull, "out", U(100));
  t.Connect(U(2), U(4), EdgeSpec::Mode::kPull, "out", U(100));
  LintReport report = PipelineLinter().Lint(t);
  EXPECT_TRUE(report.HasRule("ASC005")) << report.ToString();
}

TEST(LintTest, ASC006ChecksRecoveryKnobConsistency) {
  // Enabled without a deadline: a lost reply parks the stream forever.
  TopologySpec t = ReadOnlyChain();
  t.recovery = {.enabled = true, .retry = {.deadline = 0, .attempts = 4, .backoff = 100},
                .checkpoint_every = 8, .probe_interval = 500};
  LintReport report = PipelineLinter().Lint(t);
  ASSERT_TRUE(report.HasRule("ASC006")) << report.ToString();
  EXPECT_GE(report.error_count(), 1u);

  // Enabled without retries: deadlines convert hangs into data loss.
  t.recovery = {.enabled = true, .retry = {.deadline = 1000, .attempts = 0, .backoff = 100},
                .checkpoint_every = 8, .probe_interval = 500};
  report = PipelineLinter().Lint(t);
  ASSERT_TRUE(report.HasRule("ASC006")) << report.ToString();
  EXPECT_GE(report.error_count(), 1u);

  // checkpoint_every == 0 is legal but replays the world: warning only.
  t.recovery = {.enabled = true, .retry = {.deadline = 1000, .attempts = 4, .backoff = 100},
                .checkpoint_every = 0, .probe_interval = 500};
  report = PipelineLinter().Lint(t);
  EXPECT_TRUE(report.HasRule("ASC006")) << report.ToString();
  EXPECT_EQ(report.error_count(), 0u);
  EXPECT_GE(report.warning_count(), 1u);

  // Conventional discipline without a probe: both correspondents of a
  // crashed filter are passive, nothing reactivates it.
  t.flavor = Flavor::kConventional;
  t.recovery = {.enabled = true, .retry = {.deadline = 1000, .attempts = 4, .backoff = 100},
                .checkpoint_every = 8, .probe_interval = 0};
  report = PipelineLinter().Lint(t);
  EXPECT_TRUE(report.HasRule("ASC006")) << report.ToString();
  EXPECT_GE(report.warning_count(), 1u);
  t.flavor = Flavor::kReadOnly;

  // Knobs set but recovery disabled: the effective_retry() gating ignores them.
  t.recovery = {.enabled = false, .retry = {.deadline = 1000, .attempts = 4, .backoff = 100},
                .checkpoint_every = 8, .probe_interval = 500};
  report = PipelineLinter().Lint(t);
  EXPECT_TRUE(report.HasRule("ASC006")) << report.ToString();
  EXPECT_EQ(report.error_count(), 0u);

  // Fully consistent configuration: silent.
  t.recovery = {.enabled = true, .retry = {.deadline = 1000, .attempts = 4, .backoff = 100},
                .checkpoint_every = 8, .probe_interval = 500};
  report = PipelineLinter().Lint(t);
  EXPECT_FALSE(report.HasRule("ASC006")) << report.ToString();
}

TEST(LintTest, ASC007RequiresDemandToReachLazyStages) {
  // A lazy source in a pull chain ending at an active sink is fine.
  TopologySpec good = ReadOnlyChain();
  good.stages[0].lazy = true;
  good.stages[1].lazy = true;
  EXPECT_FALSE(PipelineLinter().Lint(good).HasRule("ASC007"));

  // A lazy stage whose only path onward is a push wire: the Transfer that
  // would start it never arrives.
  TopologySpec bad;
  bad.flavor = Flavor::kMixed;
  bad.AddStage({.uid = U(1), .name = "source", .type = "VectorSource",
                .is_source = true, .passive_output = true,
                .active_output = true, .lazy = true});
  bad.AddStage({.uid = U(2), .name = "sink", .type = "PushSink",
                .is_sink = true, .passive_input = true});
  bad.Connect(U(1), U(2), EdgeSpec::Mode::kPush, "in");
  LintReport report = PipelineLinter().Lint(bad);
  ASSERT_TRUE(report.HasRule("ASC007")) << report.ToString();
  EXPECT_GE(report.error_count(), 1u);
}

TEST(LintTest, ASC008RejectsPortDisciplineMismatches) {
  // Pull wire from a stage with no passive output (nobody serves Transfer).
  TopologySpec t = ReadOnlyChain();
  t.stages[0].passive_output = false;
  LintReport report = PipelineLinter().Lint(t);
  EXPECT_TRUE(report.HasRule("ASC008")) << report.ToString();

  // Pull wire into a stage with no active input (nobody issues Transfer).
  t = ReadOnlyChain();
  t.stages[2].active_input = false;
  report = PipelineLinter().Lint(t);
  EXPECT_TRUE(report.HasRule("ASC008")) << report.ToString();

  // Push wire into a stage with no passive input (nobody accepts Push).
  t = WriteOnlyChain();
  t.stages[2].passive_input = false;
  report = PipelineLinter().Lint(t);
  EXPECT_TRUE(report.HasRule("ASC008")) << report.ToString();
}

TEST(LintTest, ASC009RejectsLowatAboveHiwat) {
  // Producers block at hiwat and are released only below lowat; with
  // lowat > hiwat the release condition is unreachable.
  TopologySpec t = WriteOnlyChain();
  t.stages[1].bounded = true;
  t.stages[1].hiwat = 4;
  t.stages[1].lowat = 9;
  LintReport report = PipelineLinter().Lint(t);
  ASSERT_TRUE(report.HasRule("ASC009")) << report.ToString();
  EXPECT_GE(report.error_count(), 1u);
  EXPECT_NE(report.ToString().find("lowat"), std::string::npos);
}

TEST(LintTest, ASC009RejectsZeroHiwatPassiveInput) {
  // hiwat 0 on a passive input withholds every Push reply forever: the
  // first datum deadlocks its producer.
  TopologySpec t = WriteOnlyChain();
  t.stages[2].bounded = true;
  t.stages[2].hiwat = 0;
  LintReport report = PipelineLinter().Lint(t);
  ASSERT_TRUE(report.HasRule("ASC009")) << report.ToString();
  EXPECT_GE(report.error_count(), 1u);
}

TEST(LintTest, ASC009AllowsLazyZeroHiwatOutput) {
  // hiwat 0 on a *lazy* passive output is §4's pure demand-driven mode,
  // not a misconfiguration.
  TopologySpec t = ReadOnlyChain();
  t.stages[0].lazy = true;
  t.stages[0].bounded = true;
  t.stages[0].hiwat = 0;
  LintReport report = PipelineLinter().Lint(t);
  EXPECT_FALSE(report.HasRule("ASC009")) << report.ToString();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(LintTest, ASC009WarnsOnNonLazyZeroHiwat) {
  // The same zero hiwat without the lazy marking is probably a mistake
  // (the stage stalls until demand) but still runs: warning, not error.
  TopologySpec t = ReadOnlyChain();
  t.stages[0].bounded = true;
  t.stages[0].hiwat = 0;
  LintReport report = PipelineLinter().Lint(t);
  ASSERT_TRUE(report.HasRule("ASC009")) << report.ToString();
  EXPECT_GE(report.warning_count(), 1u);
  EXPECT_TRUE(report.ok()) << report.ToString();  // warnings don't reject
}

TEST(LintTest, RuleTableCoversAllTwelveRules) {
  const std::vector<PipelineLinter::RuleInfo>& rules = PipelineLinter::Rules();
  ASSERT_EQ(rules.size(), 12u);
  for (size_t i = 0; i < rules.size(); ++i) {
    char id[32];
    std::snprintf(id, sizeof(id), "ASC%03zu", i + 1);
    EXPECT_EQ(rules[i].id, id);
    EXPECT_FALSE(rules[i].summary.empty());
  }
}

TEST(LintTest, SummaryNamesLeadingErrors) {
  TopologySpec t = ReadOnlyChain();
  t.AddStage({.uid = U(4), .name = "sink2", .type = "PullSink",
              .is_sink = true, .active_input = true});
  t.Connect(U(2), U(4), EdgeSpec::Mode::kPull);
  LintReport report = PipelineLinter().Lint(t);
  std::string summary = report.Summary();
  EXPECT_NE(summary.find("ASC001"), std::string::npos) << summary;
}

// ---- Pipeline plan bridge (core/pipeline_verify).

PipelineOptions OptionsFor(Discipline d) {
  PipelineOptions options;
  options.discipline = d;
  return options;
}

TransformFactory Copy() {
  return MakeTransformFactory<LambdaTransform>(
      "copy", [](const Value& v, const Transform::EmitFn& emit) {
        emit(kChanOut, v);
      });
}

TEST(PipelinePlanTest, AllDisciplinesPlanClean) {
  for (Discipline d : {Discipline::kReadOnly, Discipline::kWriteOnly,
                       Discipline::kConventional}) {
    PipelineOptions options = OptionsFor(d);
    LintReport report = LintPipelinePlan(3, options);
    EXPECT_TRUE(report.ok()) << DisciplineName(d) << "\n" << report.ToString();
    EXPECT_TRUE(report.diagnostics.empty())
        << DisciplineName(d) << "\n" << report.ToString();

    // Recovery enabled with the default knobs is also consistent.
    options.recovery.enabled = true;
    report = LintPipelinePlan(3, options);
    EXPECT_TRUE(report.diagnostics.empty())
        << DisciplineName(d) << "\n" << report.ToString();
  }
  // §4 laziness plans clean too (ASC007 must see the demand chain).
  PipelineOptions lazy = OptionsFor(Discipline::kReadOnly);
  lazy.start_on_demand = true;
  EXPECT_TRUE(LintPipelinePlan(3, lazy).diagnostics.empty());
}

TEST(PipelinePlanTest, ASC009CatchesBadWatermarkKnobs) {
  // A lowat above the capacity-derived hiwat reaches the plan's stage
  // specs and is rejected before any Eject exists.
  PipelineOptions options = OptionsFor(Discipline::kWriteOnly);
  options.acceptor_capacity = 4;
  options.acceptor_lowat = 9;
  LintReport report = LintPipelinePlan(2, options);
  ASSERT_TRUE(report.HasRule("ASC009")) << report.ToString();
  EXPECT_FALSE(report.ok());

  // Same for the conventional pipes.
  PipelineOptions pipes = OptionsFor(Discipline::kConventional);
  pipes.pipe_capacity = 4;
  pipes.pipe_lowat = 9;
  report = LintPipelinePlan(2, pipes);
  ASSERT_TRUE(report.HasRule("ASC009")) << report.ToString();

  // And the activation gate refuses to build the bad plan.
  Kernel kernel;
  options.lint_before_activate = true;
  std::vector<TransformFactory> stages = {Copy()};
  PipelineHandle handle =
      BuildPipeline(kernel, {Value("x")}, stages, options);
  EXPECT_TRUE(handle.lint_rejected);
  EXPECT_TRUE(handle.lint.HasRule("ASC009")) << handle.lint.ToString();
  EXPECT_EQ(kernel.stats().ejects_created, 0u);
}

// The plan-bridge matrix: every discipline, recovery off and on, all on
// node 0 or distinct_nodes + partition_shard, on a fresh kernel or one that
// already holds nodes (so the plan's node ids must start past them).
struct PlanCase {
  Discipline discipline;
  bool recovery;
  bool distinct_nodes;
  bool prior_nodes;

  std::string Name() const {
    return std::string(DisciplineName(discipline)) +
           (recovery ? " recovery" : "") +
           (distinct_nodes ? " distinct_nodes" : "") +
           (prior_nodes ? " prior_nodes" : "");
  }
  PipelineOptions Options() const {
    PipelineOptions options = OptionsFor(discipline);
    options.recovery.enabled = recovery;
    options.distinct_nodes = distinct_nodes;
    options.partition_shard = distinct_nodes ? 1 : -1;
    return options;
  }
  // A four-shard kernel, holding two nodes already when prior_nodes is set.
  std::unique_ptr<Kernel> MakeKernel() const {
    KernelOptions options;
    options.shards = 4;
    auto kernel = std::make_unique<Kernel>(options);
    if (prior_nodes) {
      kernel->AddNode("spare-a");
      kernel->AddNode("spare-b", 3);
    }
    return kernel;
  }
};

std::vector<PlanCase> PlanCases() {
  std::vector<PlanCase> cases;
  for (Discipline d : {Discipline::kReadOnly, Discipline::kWriteOnly,
                       Discipline::kConventional}) {
    for (bool recovery : {false, true}) {
      for (bool distinct : {false, true}) {
        for (bool prior : {false, true}) {
          cases.push_back({d, recovery, distinct, prior});
        }
      }
    }
  }
  return cases;
}

TEST(PipelinePlanTest, DescribePipelineMatchesAsBuilt) {
  for (const PlanCase& c : PlanCases()) {
    SCOPED_TRACE(c.Name());
    std::unique_ptr<Kernel> owned = c.MakeKernel();
    Kernel& kernel = *owned;
    PipelineOptions options = c.Options();
    std::vector<TransformFactory> stages = {Copy(), Copy()};
    verify::TopologySpec plan = PlanTopology(stages.size(), options, kernel);
    PipelineHandle handle =
        BuildPipeline(kernel, {Value("a"), Value("b")}, stages, options);
    kernel.Run();
    ASSERT_TRUE(handle.done());

    verify::TopologySpec spec = DescribePipeline(handle, options);
    EXPECT_EQ(spec.flavor, plan.flavor);
    EXPECT_EQ(spec.recovery.enabled, plan.recovery.enabled);
    EXPECT_EQ(spec.recovery.retry.deadline, plan.recovery.retry.deadline);
    EXPECT_EQ(spec.recovery.checkpoint_every, plan.recovery.checkpoint_every);
    EXPECT_EQ(spec.has_concurrency, plan.has_concurrency);
    EXPECT_EQ(spec.shards, plan.shards);
    EXPECT_EQ(spec.lookahead, plan.lookahead);
    ASSERT_EQ(spec.stages.size(), handle.ejects.size());
    ASSERT_EQ(plan.stages.size(), handle.ejects.size());
    for (size_t i = 0; i < spec.stages.size(); ++i) {
      SCOPED_TRACE("stage " + std::to_string(i));
      const StageSpec& built = spec.stages[i];
      const StageSpec& planned = plan.stages[i];
      EXPECT_EQ(built.uid, handle.ejects[i]);
      EXPECT_EQ(built.name, handle.stage_names[i]);
      EXPECT_EQ(built.name, planned.name);
      EXPECT_EQ(built.type, planned.type);
      EXPECT_EQ(built.is_source, planned.is_source);
      EXPECT_EQ(built.is_sink, planned.is_sink);
      EXPECT_EQ(built.active_input, planned.active_input);
      EXPECT_EQ(built.passive_output, planned.passive_output);
      EXPECT_EQ(built.active_output, planned.active_output);
      EXPECT_EQ(built.passive_input, planned.passive_input);
      EXPECT_EQ(built.lazy, planned.lazy);
      EXPECT_EQ(built.bounded, planned.bounded);
      EXPECT_EQ(built.hiwat, planned.hiwat);
      EXPECT_EQ(built.lowat, planned.lowat);
      EXPECT_EQ(built.node, planned.node);
      EXPECT_EQ(built.shard_hint, planned.shard_hint);
      const Eject* eject = kernel.Find(handle.ejects[i]);
      ASSERT_NE(eject, nullptr);
      EXPECT_EQ(built.node, eject->node());
      EXPECT_EQ(spec.ShardOf(built), kernel.ShardOf(eject->node()));
    }
    ASSERT_EQ(spec.edges.size(), plan.edges.size());
    for (size_t i = 0; i < spec.edges.size(); ++i) {
      SCOPED_TRACE("edge " + std::to_string(i));
      const EdgeSpec& built = spec.edges[i];
      const EdgeSpec& planned = plan.edges[i];
      EXPECT_EQ(built.from, handle.ejects[PlanPosition(planned.from)]);
      EXPECT_EQ(built.to, handle.ejects[PlanPosition(planned.to)]);
      EXPECT_EQ(built.mode, planned.mode);
      EXPECT_EQ(built.channel, planned.channel);
      EXPECT_EQ(built.channel_uid, planned.channel_uid);
    }
    LintReport report = PipelineLinter().Lint(spec);
    EXPECT_TRUE(report.ok()) << report.ToString();
  }
}

TEST(PipelinePlanTest, PlanNamesMatchBuiltStageNames) {
  for (const PlanCase& c : PlanCases()) {
    SCOPED_TRACE(c.Name());
    std::unique_ptr<Kernel> owned = c.MakeKernel();
    Kernel& kernel = *owned;
    PipelineOptions options = c.Options();
    std::vector<TransformFactory> stages = {Copy(), Copy()};
    verify::TopologySpec plan = PlanTopology(stages.size(), options);
    PipelineHandle handle =
        BuildPipeline(kernel, {Value("x")}, stages, options);
    ASSERT_EQ(plan.stages.size(), handle.stage_names.size());
    ASSERT_EQ(plan.stages.size(), handle.ejects.size());
    for (size_t i = 0; i < plan.stages.size(); ++i) {
      EXPECT_EQ(plan.stages[i].name, handle.stage_names[i]) << "stage " << i;
      // A recoverable filter's type is the plan's type plus "/<index>".
      const Eject* eject = kernel.Find(handle.ejects[i]);
      ASSERT_NE(eject, nullptr);
      EXPECT_EQ(eject->type_name().substr(0, plan.stages[i].type.size()),
                plan.stages[i].type)
          << "stage " << i;
    }
    kernel.Run();
  }
}

TEST(PipelinePlanTest, DescribeRejectedHandleAddsNoFinding) {
  for (Discipline d : {Discipline::kReadOnly, Discipline::kWriteOnly,
                       Discipline::kConventional}) {
    // Two ways to be rejected: inconsistent recovery knobs (ASC006) and a
    // lowat above the hiwat of the discipline's bounded queues (ASC009).
    PipelineOptions knobs = OptionsFor(d);
    knobs.recovery.enabled = true;
    knobs.recovery.retry.deadline = 0;
    PipelineOptions watermarks = OptionsFor(d);
    watermarks.work_ahead_lowat = 9;
    watermarks.acceptor_lowat = 9;
    watermarks.pipe_lowat = 99;
    for (PipelineOptions options : {knobs, watermarks}) {
      options.lint_before_activate = true;
      Kernel kernel;
      std::vector<TransformFactory> stages = {Copy(), Copy()};
      PipelineHandle handle =
          BuildPipeline(kernel, {Value("x")}, stages, options);
      ASSERT_TRUE(handle.lint_rejected) << DisciplineName(d);
      verify::TopologySpec spec = DescribePipeline(handle, options);
      for (const StageSpec& stage : spec.stages) {
        EXPECT_FALSE(stage.uid.IsNil()) << DisciplineName(d);
      }
      for (const verify::LintDiagnostic& diagnostic :
           PipelineLinter().Lint(spec).diagnostics) {
        EXPECT_TRUE(handle.lint.HasRule(diagnostic.rule))
            << DisciplineName(d) << " description adds "
            << diagnostic.ToString();
      }
    }
  }
}

// ---- The lint_before_activate gate.

TEST(LintGateTest, RejectsInconsistentRecoveryBeforeAnyEjectExists) {
  Kernel kernel;
  PipelineOptions options;
  options.lint_before_activate = true;
  options.recovery.enabled = true;
  options.recovery.retry.deadline = 0;  // ASC006: enabled without a deadline
  std::vector<TransformFactory> stages = {Copy()};
  PipelineHandle handle =
      BuildPipeline(kernel, {Value("x")}, stages, options);
  EXPECT_TRUE(handle.lint_rejected);
  EXPECT_TRUE(handle.lint.HasRule("ASC006")) << handle.lint.ToString();
  EXPECT_TRUE(handle.ejects.empty());
  // The kernel was never perturbed: no Eject exists, nothing to run.
  EXPECT_EQ(kernel.stats().ejects_created, 0u);

  // RunPipeline under the same options returns empty instead of hanging.
  ValueList out = RunPipeline(kernel, {Value("x")}, stages, options);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(kernel.stats().ejects_created, 0u);
}

TEST(LintGateTest, CleanPlanActivatesAndAttachesReport) {
  Kernel kernel;
  PipelineOptions options;
  options.lint_before_activate = true;
  std::vector<TransformFactory> stages = {Copy()};
  ValueList input = {Value("a"), Value("b"), Value("c")};
  PipelineHandle handle = BuildPipeline(kernel, input, stages, options);
  EXPECT_FALSE(handle.lint_rejected);
  EXPECT_TRUE(handle.lint.ok()) << handle.lint.ToString();
  kernel.Run();
  ASSERT_TRUE(handle.done());
  EXPECT_EQ(handle.output(), input);
}

// ---- Lockdep.

TEST(LockdepTest, SelfTestPasses) {
  std::string report;
  EXPECT_TRUE(LockOrderAnalyzer::SelfTest(&report)) << report;
  EXPECT_NE(report.find("inversion detected"), std::string::npos) << report;
}

// Two coroutines of one host nesting two mutexes in opposite orders. The
// runs don't overlap in this schedule — lockdep's point is that the *order
// graph* cycle already proves an interleaving exists that deadlocks.
class InvertedLocker : public Eject {
 public:
  explicit InvertedLocker(Kernel& kernel)
      : Eject(kernel, "InvertedLocker"), a_(*this, "A"), b_(*this, "B") {}

  Task<void> LockAB() {
    co_await a_.Lock();
    co_await b_.Lock();
    b_.Unlock();
    a_.Unlock();
  }
  Task<void> LockBA() {
    co_await b_.Lock();
    co_await a_.Lock();
    a_.Unlock();
    b_.Unlock();
  }

  Mutex a_;
  Mutex b_;
};

TEST(LockdepTest, RealMutexInversionIsReported) {
  Kernel kernel;
  TraceRecorder recorder;
  LockOrderAnalyzer analyzer;
  analyzer.set_trace_sink(recorder.Hook());
  kernel.set_lock_observer(&analyzer);

  InvertedLocker& host = kernel.CreateLocal<InvertedLocker>();
  host.Spawn(host.LockAB());
  kernel.Run();
  EXPECT_TRUE(analyzer.ok());  // AB alone establishes order, no cycle yet

  host.Spawn(host.LockBA());
  kernel.Run();
  ASSERT_EQ(analyzer.violations().size(), 1u) << analyzer.ToString();
  const LockOrderAnalyzer::LockViolation& v = analyzer.violations().front();
  EXPECT_EQ(v.kind, LockOrderAnalyzer::LockViolation::Kind::kOrderCycle);
  EXPECT_EQ(v.holder, host.uid());
  EXPECT_EQ(analyzer.locks_seen(), 2u);
  EXPECT_NE(analyzer.ToString().find("VIOLATIONS"), std::string::npos);

  // The violation doubled as a kViolation trace event, like the monitor's.
  bool traced = false;
  for (const TraceEvent& event : recorder.events()) {
    if (event.kind == TraceEvent::Kind::kViolation &&
        event.op.find("lock-order-cycle") != std::string::npos) {
      traced = true;
    }
  }
  EXPECT_TRUE(traced);

  kernel.set_lock_observer(nullptr);
}

TEST(LockdepTest, ConsistentOrderIsClean) {
  Kernel kernel;
  LockOrderAnalyzer analyzer;
  kernel.set_lock_observer(&analyzer);
  InvertedLocker& host = kernel.CreateLocal<InvertedLocker>();
  host.Spawn(host.LockAB());
  kernel.Run();
  host.Spawn(host.LockAB());  // same order twice: no inversion
  kernel.Run();
  EXPECT_TRUE(analyzer.ok()) << analyzer.ToString();
  kernel.set_lock_observer(nullptr);
}

class BlockingHolder : public Eject {
 public:
  explicit BlockingHolder(Kernel& kernel)
      : Eject(kernel, "BlockingHolder"), m_(*this, "M"), wake_(*this) {}

  Task<void> HoldAcrossWait() {
    co_await m_.Lock();
    co_await wake_.Wait();  // suspends with M held: the second hazard class
    m_.Unlock();
  }

  Mutex m_;
  CondVar wake_;
};

TEST(LockdepTest, SuspensionWithLockHeldIsReported) {
  Kernel kernel;
  LockOrderAnalyzer analyzer;
  kernel.set_lock_observer(&analyzer);
  BlockingHolder& host = kernel.CreateLocal<BlockingHolder>();
  host.Spawn(host.HoldAcrossWait());
  kernel.Run();
  ASSERT_EQ(analyzer.violations().size(), 1u) << analyzer.ToString();
  const LockOrderAnalyzer::LockViolation& v = analyzer.violations().front();
  EXPECT_EQ(v.kind,
            LockOrderAnalyzer::LockViolation::Kind::kHeldAcrossBlocking);
  EXPECT_NE(v.detail.find("condition wait"), std::string::npos) << v.detail;

  host.wake_.Notify();  // let the coroutine finish cleanly
  kernel.Run();
  EXPECT_FALSE(host.m_.locked());
  kernel.set_lock_observer(nullptr);
}

TEST(LockdepTest, MutexContentionItselfIsNotBlockingHazard) {
  // Waiting *for* a mutex is ordinary contention, not a held-across-blocking
  // hazard; only the order graph judges it. Two coroutines contending on one
  // mutex in a consistent order must stay clean.
  Kernel kernel;
  LockOrderAnalyzer analyzer;
  kernel.set_lock_observer(&analyzer);
  InvertedLocker& host = kernel.CreateLocal<InvertedLocker>();
  host.Spawn(host.LockAB());
  host.Spawn(host.LockAB());
  kernel.Run();
  EXPECT_TRUE(analyzer.ok()) << analyzer.ToString();
  EXPECT_FALSE(host.a_.locked());
  EXPECT_FALSE(host.b_.locked());
  kernel.set_lock_observer(nullptr);
}

// ---- Monitor and doctor wiring.

TEST(VerifyWiringTest, MonitorRecordsStaticFindings) {
  InvariantMonitor monitor;
  monitor.OnStaticFinding(5, Uid(0, 7), "ASC001 filter2: read-only fan-out");
  ASSERT_EQ(monitor.violations().size(), 1u);
  EXPECT_EQ(monitor.violations().front().kind,
            InvariantMonitor::Violation::Kind::kStatic);
  EXPECT_NE(monitor.violations().front().detail.find("ASC001"),
            std::string::npos);
}

TEST(VerifyWiringTest, DoctorVerdictCarriesLintOutcome) {
  Diagnosis clean;
  clean.verdict = "verdict: bottleneck: filter1, 80% of critical path";
  clean.AnnotateStatic(0, 0, "");
  // The CI grep for "verdict: bottleneck" must keep matching: the lint
  // outcome appends to the verdict line, never replaces it.
  EXPECT_NE(clean.verdict.find("verdict: bottleneck"), std::string::npos);
  EXPECT_NE(clean.verdict.find("lint clean"), std::string::npos);

  Diagnosis dirty;
  dirty.verdict = "verdict: bottleneck: filter1";
  dirty.AnnotateStatic(2, 1, "ASC001 at filter1, ASC006");
  EXPECT_NE(dirty.verdict.find("2 errors"), std::string::npos);
  EXPECT_NE(dirty.verdict.find("1 warning"), std::string::npos);
  EXPECT_NE(dirty.verdict.find("ASC001"), std::string::npos);
}

// ---- Shell integration.

std::string Joined(const ShellResult& r) {
  std::string out;
  for (const std::string& line : r.output) {
    out += line;
    out += "\n";
  }
  return out;
}

TEST(VerifyShellTest, PipelinesAreLintedAndReportedClean) {
  Kernel kernel;
  EdenShell shell(kernel);
  ShellResult r = shell.Run("echo a b | upper | collect");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(shell.last_lint().ok()) << shell.last_lint().ToString();
  EXPECT_FALSE(shell.last_topology().stages.empty());

  r = shell.Run("lint");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(Joined(r).find("topology is well-formed"), std::string::npos);
}

TEST(VerifyShellTest, ReportRedirectPipelinesLintClean) {
  // A report>WIN redirect adds a second output channel on one filter; the
  // distinct channel name keeps it off ASC001 (Figure 4's discipline).
  Kernel kernel;
  EdenShell shell(kernel);
  ASSERT_TRUE(shell.Run("echo a b | collect").ok);
  ShellResult r = shell.Run("echo x | upper | report 2 copy report>win | collect");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(shell.last_lint().ok()) << shell.last_lint().ToString();
}

TEST(VerifyShellTest, LintRulesListsTheRuleTable) {
  Kernel kernel;
  EdenShell shell(kernel);
  ShellResult r = shell.Run("lint rules");
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.output.size(), 12u);
  EXPECT_EQ(r.output.front().substr(0, 6), "ASC001");
  EXPECT_EQ(r.output.back().substr(0, 6), "ASC012");
}

TEST(VerifyShellTest, LintBeforeAnyPipelineExplainsItself) {
  Kernel kernel;
  EdenShell shell(kernel);
  ShellResult r = shell.Run("lint");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(Joined(r).find("no pipeline"), std::string::npos);
}

TEST(VerifyShellTest, LockdepCommandLifecycle) {
  Kernel kernel;
  EdenShell shell(kernel);
  ASSERT_TRUE(shell.Run("lockdep on").ok);
  ASSERT_TRUE(shell.Run("echo a b | upper | collect").ok);
  ShellResult r = shell.Run("lockdep show");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(Joined(r).find("no potential deadlocks"), std::string::npos);
  ASSERT_TRUE(shell.Run("lockdep clear").ok);
  ASSERT_TRUE(shell.Run("lockdep off").ok);
}

TEST(VerifyShellTest, LockdepSelfTestRunsFromTheShell) {
  Kernel kernel;
  EdenShell shell(kernel);
  ShellResult r = shell.Run("lockdep selftest");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(Joined(r).find("selftest passed"), std::string::npos);
}

TEST(VerifyShellTest, DoctorVerdictAnnotatedAfterLintedPipeline) {
  Kernel kernel;
  EdenShell shell(kernel);
  ASSERT_TRUE(shell.Run("trace on").ok);
  ASSERT_TRUE(shell.Run("echo a b c | upper | collect").ok);
  ShellResult r = shell.Run("doctor");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(Joined(r).find("lint clean"), std::string::npos) << Joined(r);
}

// Deterministic input for the audit runs (no RNG: the certificates are
// asserted byte-identical, so the workload itself must be a constant).
ValueList MakeAuditLines(int n) {
  ValueList items;
  items.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    items.push_back(Value("line " + std::to_string(i)));
  }
  return items;
}

// ---- Concurrency lints (ASC010-ASC012).

// ReadOnlyChain with nodes 1..3 and the concurrency context armed. At the
// default cost model every node-to-node edge costs invocation_send (100) +
// cross_node_latency (400) = 500 when it crosses a shard.
TopologySpec ShardedChain(int shards, Tick lookahead) {
  TopologySpec t = ReadOnlyChain();
  for (size_t i = 0; i < t.stages.size(); ++i) {
    t.stages[i].node = static_cast<NodeId>(i + 1);
  }
  t.has_concurrency = true;
  t.shards = shards;
  t.lookahead = lookahead;
  return t;
}

TEST(LintTest, ASC010RejectsLookaheadAboveMinCrossShardCost) {
  TopologySpec t = ShardedChain(2, 600);  // > 500: the kernel would abort
  LintReport report = PipelineLinter().Lint(t);
  ASSERT_TRUE(report.HasRule("ASC010")) << report.ToString();
  EXPECT_GE(report.error_count(), 1u);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("abort"), std::string::npos);
}

TEST(LintTest, ASC010AllowsLookaheadAtTheBound) {
  // lookahead == min cross-shard cost is exactly safe: no error, and no
  // ASC012 headroom warning either (nothing larger is derivable).
  TopologySpec t = ShardedChain(2, 500);
  LintReport report = PipelineLinter().Lint(t);
  EXPECT_FALSE(report.HasRule("ASC010")) << report.ToString();
  EXPECT_FALSE(report.HasRule("ASC012")) << report.ToString();
}

TEST(LintTest, ConcurrencyRulesStaySilentWithoutContext) {
  // The same shape without has_concurrency (a bare wiring spec, the legacy
  // plan bridge): ASC010-ASC012 must not fire regardless of placement.
  TopologySpec t = ShardedChain(2, 600);
  t.has_concurrency = false;
  LintReport report = PipelineLinter().Lint(t);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_TRUE(report.diagnostics.empty()) << report.ToString();
}

TEST(LintTest, ASC011WarnsOnRoundRobinCuttingEveryEdge) {
  // Nodes 1,2,3 round-robin on 2 shards: both edges cross, but 2 shards
  // need only 1 cut of a connected chain.
  TopologySpec t = ShardedChain(2, 0);
  LintReport report = PipelineLinter().Lint(t);
  ASSERT_TRUE(report.HasRule("ASC011")) << report.ToString();
  EXPECT_GE(report.warning_count(), 1u);
  EXPECT_TRUE(report.ok());  // warning, not error
  EXPECT_NE(report.ToString().find("partition_shard"), std::string::npos);
}

TEST(LintTest, ASC011AllowsCoLocatedPlacement) {
  // Shard hints pin the whole chain to shard 0: no edge is cut.
  TopologySpec t = ShardedChain(2, 0);
  for (StageSpec& stage : t.stages) {
    stage.shard_hint = 0;
  }
  LintReport report = PipelineLinter().Lint(t);
  EXPECT_FALSE(report.HasRule("ASC011")) << report.ToString();
}

TEST(LintTest, ASC012SuggestsLargerSafeLookahead) {
  // lookahead 0 derives the conservative invocation_send default (100),
  // but every cross-shard edge costs >= 500: the warning names the bound.
  TopologySpec t = ShardedChain(2, 0);
  LintReport report = PipelineLinter().Lint(t);
  ASSERT_TRUE(report.HasRule("ASC012")) << report.ToString();
  bool named_bound = false;
  for (const verify::LintDiagnostic& diag : report.diagnostics) {
    if (diag.rule == "ASC012") {
      named_bound = named_bound ||
                    diag.fix_hint.find("500") != std::string::npos;
    }
  }
  EXPECT_TRUE(named_bound) << report.ToString();
}

TEST(LintTest, ASC012SilentWhenNoEdgeCrossesShards) {
  // One shard (or a fully co-located placement): no cross-shard edge, no
  // derivable bound, no warning.
  TopologySpec one = ShardedChain(1, 0);
  EXPECT_FALSE(PipelineLinter().Lint(one).HasRule("ASC012"));
  TopologySpec pinned = ShardedChain(4, 0);
  for (StageSpec& stage : pinned.stages) {
    stage.shard_hint = 2;
  }
  EXPECT_FALSE(PipelineLinter().Lint(pinned).HasRule("ASC012"));
}

// ---- The Kernel-aware plan bridge.

TEST(PipelinePlanTest, KernelOverloadCarriesConcurrencyContext) {
  KernelOptions kernel_options;
  kernel_options.shards = 4;
  Kernel kernel(kernel_options);
  PipelineOptions options = OptionsFor(Discipline::kReadOnly);
  options.distinct_nodes = true;
  verify::TopologySpec spec = PlanTopology(2, options, kernel);
  EXPECT_TRUE(spec.has_concurrency);
  EXPECT_EQ(spec.shards, 4);
  ASSERT_EQ(spec.stages.size(), 4u);  // source, filter1, filter2, sink
  for (size_t i = 0; i < spec.stages.size(); ++i) {
    EXPECT_EQ(spec.stages[i].node, static_cast<NodeId>(i + 1));
  }
  // Same options on a 1-shard kernel: context armed but nothing to cut.
  Kernel sequential;
  verify::TopologySpec flat = PlanTopology(2, options, sequential);
  EXPECT_TRUE(flat.has_concurrency);
  EXPECT_EQ(flat.shards, 1);
  EXPECT_TRUE(PipelineLinter().Lint(flat).diagnostics.empty());
}

TEST(LintGateTest, SeededLookaheadUndercutIsCaughtBeforeActivation) {
  // KernelOptions::lookahead = 1000 on a 4-shard kernel exceeds every
  // cross-shard edge cost (500 at defaults): before this rule existed the
  // run would std::abort() on the first undercut. The gate must catch it
  // statically — no Eject created, no runtime abort.
  KernelOptions kernel_options;
  kernel_options.shards = 4;
  kernel_options.lookahead = 1000;
  Kernel kernel(kernel_options);
  PipelineOptions options = OptionsFor(Discipline::kReadOnly);
  options.distinct_nodes = true;
  options.lint_before_activate = true;
  std::vector<TransformFactory> stages = {Copy(), Copy()};
  PipelineHandle handle =
      BuildPipeline(kernel, {Value("x"), Value("y")}, stages, options);
  EXPECT_TRUE(handle.lint_rejected);
  EXPECT_TRUE(handle.lint.HasRule("ASC010")) << handle.lint.ToString();
  EXPECT_EQ(kernel.stats().ejects_created, 0u);

  // The same plan with a safe lookahead activates.
  KernelOptions safe_options;
  safe_options.shards = 4;
  safe_options.lookahead = 500;
  Kernel safe(safe_options);
  PipelineHandle ok_handle =
      BuildPipeline(safe, {Value("x"), Value("y")}, stages, options);
  EXPECT_FALSE(ok_handle.lint_rejected) << ok_handle.lint.ToString();
  safe.Run();
  EXPECT_TRUE(ok_handle.done());
}

// ---- The runtime happens-before checker (ShardRaceAnalyzer).

using verify::AuditViolation;
using verify::RunDigest;
using verify::ShardRaceAnalyzer;

TEST(ShardAuditTest, RuntimeUndercutIsReportedNotAborted) {
  // The same seeded undercut as above, injected at runtime (no lint gate).
  // With the auditor installed the kernel reports each undercut and clamps
  // the delivery instead of calling std::abort(): the run completes, all
  // items arrive, and the violations are on record in the analyzer, the
  // monitor (kShardRace) and the trace (kViolation).
  KernelOptions kernel_options;
  kernel_options.shards = 4;
  kernel_options.lookahead = 1000;
  Kernel kernel(kernel_options);
  ShardRaceAnalyzer auditor;
  TraceRecorder recorder;
  InvariantMonitor monitor;
  auditor.set_trace_sink(recorder.Hook());
  auditor.set_monitor(&monitor);
  kernel.set_auditor(&auditor);

  PipelineOptions options = OptionsFor(Discipline::kReadOnly);
  options.distinct_nodes = true;
  std::vector<TransformFactory> stages = {Copy(), Copy()};
  ValueList input;
  for (int i = 0; i < 40; ++i) {
    input.push_back(Value("item" + std::to_string(i)));
  }
  PipelineHandle handle = BuildPipeline(kernel, input, stages, options);
  kernel.RunUntil([&handle] { return handle.done(); });
  EXPECT_TRUE(kernel.Run());

  EXPECT_EQ(handle.output().size(), input.size());
  ASSERT_GT(auditor.violation_count(), 0u) << auditor.ToString();
  bool undercut = false;
  for (const AuditViolation& v : auditor.Violations()) {
    undercut = undercut || v.kind == AuditViolation::Kind::kWindowUndercut;
  }
  EXPECT_TRUE(undercut) << auditor.ToString();
  EXPECT_FALSE(auditor.ok());
  EXPECT_FALSE(auditor.Digest().certified());

  bool monitored = false;
  for (const InvariantMonitor::Violation& v : monitor.violations()) {
    monitored =
        monitored || v.kind == InvariantMonitor::Violation::Kind::kShardRace;
  }
  EXPECT_TRUE(monitored);
  bool traced = false;
  for (const TraceEvent& event : recorder.events()) {
    if (event.kind == TraceEvent::Kind::kViolation &&
        event.op.find("shard-race") != std::string::npos) {
      traced = true;
    }
  }
  EXPECT_TRUE(traced);
}

// One figure-2 run under the auditor; returns the certificate JSON.
std::string CertifiedFig2(int shards, int items) {
  KernelOptions kernel_options;
  kernel_options.shards = shards;
  Kernel kernel(kernel_options);
  ShardRaceAnalyzer auditor;
  kernel.set_auditor(&auditor);
  PipelineOptions options = OptionsFor(Discipline::kReadOnly);
  options.distinct_nodes = true;
  std::vector<TransformFactory> stages = {Copy(), Copy()};
  PipelineHandle handle = BuildPipeline(
      kernel, MakeAuditLines(items), stages, options);
  kernel.RunUntil([&handle] { return handle.done(); });
  EXPECT_TRUE(kernel.Run());
  EXPECT_TRUE(auditor.ok()) << auditor.ToString();
  return auditor.ToJson();
}

TEST(ShardAuditTest, Fig2CertificatesAreByteIdenticalAcrossShardCounts) {
  const int items = 60;
  std::string base = CertifiedFig2(1, items);
  EXPECT_NE(base.find("eden-run-digest-v1"), std::string::npos);
  EXPECT_NE(base.find("\"violations\": 0"), std::string::npos);
  for (int shards : {2, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EXPECT_EQ(CertifiedFig2(shards, items), base);
  }
}

TEST(ShardAuditTest, PerturbedDigestFailsLoudly) {
  KernelOptions kernel_options;
  kernel_options.shards = 2;
  Kernel kernel(kernel_options);
  ShardRaceAnalyzer auditor;
  kernel.set_auditor(&auditor);
  PipelineOptions options = OptionsFor(Discipline::kReadOnly);
  options.distinct_nodes = true;
  std::vector<TransformFactory> stages = {Copy()};
  PipelineHandle handle =
      BuildPipeline(kernel, MakeAuditLines(20), stages, options);
  kernel.RunUntil([&handle] { return handle.done(); });
  kernel.Run();

  RunDigest actual = auditor.Digest();
  ASSERT_TRUE(actual.certified());
  EXPECT_TRUE(RunDigest::Compare(actual, actual).empty());

  RunDigest perturbed = actual;
  perturbed.merged ^= 1;  // one flipped bit must be loud
  std::string mismatch = RunDigest::Compare(perturbed, actual);
  ASSERT_FALSE(mismatch.empty());
  EXPECT_NE(mismatch.find("mismatch"), std::string::npos) << mismatch;

  // The --expect-digest form: exact hex passes, a perturbed hex fails
  // naming both digests, and an uncertified run never passes.
  char hex[19];
  std::snprintf(hex, sizeof(hex), "0x%016llx",
                static_cast<unsigned long long>(actual.merged));
  EXPECT_TRUE(RunDigest::ExpectDigest(actual, hex).empty());
  std::snprintf(hex, sizeof(hex), "0x%016llx",
                static_cast<unsigned long long>(actual.merged ^ 1));
  std::string failed = RunDigest::ExpectDigest(actual, hex);
  ASSERT_FALSE(failed.empty());
  EXPECT_NE(failed.find("digest mismatch"), std::string::npos) << failed;
  EXPECT_FALSE(RunDigest::ExpectDigest(actual, "zzz").empty());

  RunDigest uncertified = actual;
  uncertified.violations = 2;
  std::snprintf(hex, sizeof(hex), "0x%016llx",
                static_cast<unsigned long long>(uncertified.merged));
  std::string rejected = RunDigest::ExpectDigest(uncertified, hex);
  ASSERT_FALSE(rejected.empty());
  EXPECT_NE(rejected.find("NOT certified"), std::string::npos) << rejected;
}

TEST(ShardAuditTest, PartitionPlacementEliminatesCrossShardSendsByteIdentically) {
  // The ASC011 fix: partition_shard pins the whole chain to one shard.
  // Output, virtual time and the determinism certificate are unchanged
  // (placement never enters event keys); only cross_shard_sends collapses.
  auto run = [](int partition_shard, uint64_t& cross_sends,
                std::string& certificate) {
    KernelOptions kernel_options;
    kernel_options.shards = 4;
    Kernel kernel(kernel_options);
    ShardRaceAnalyzer auditor;
    kernel.set_auditor(&auditor);
    PipelineOptions options = OptionsFor(Discipline::kReadOnly);
    options.distinct_nodes = true;
    options.partition_shard = partition_shard;
    std::vector<TransformFactory> stages = {Copy(), Copy()};
    PipelineHandle handle =
        BuildPipeline(kernel, MakeAuditLines(60), stages, options);
    kernel.RunUntil([&handle] { return handle.done(); });
    kernel.Run();
    cross_sends = 0;
    for (const ShardCounters& c : kernel.shard_counters()) {
      cross_sends += c.cross_shard_sends;
    }
    certificate = auditor.ToJson();
    struct Result {
      ValueList output;
      Tick virtual_time;
    };
    return Result{handle.output(), kernel.now()};
  };

  uint64_t spread_sends = 0, pinned_sends = 0;
  std::string spread_cert, pinned_cert;
  auto spread = run(-1, spread_sends, spread_cert);
  auto pinned = run(1, pinned_sends, pinned_cert);
  EXPECT_EQ(pinned.output, spread.output);
  EXPECT_EQ(pinned.virtual_time, spread.virtual_time);
  EXPECT_EQ(pinned_cert, spread_cert);
  EXPECT_GT(spread_sends, 0u);   // round-robin cuts every edge
  EXPECT_EQ(pinned_sends, 0u);   // co-located chain never crosses
}

// ---- Lockdep under a sharded kernel (the analyzer is installed while
// workers run in parallel; violations must surface identically).

TEST(LockdepTest, InversionIsReportedUnderShardedKernels) {
  for (int shards : {2, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    KernelOptions kernel_options;
    kernel_options.shards = shards;
    Kernel kernel(kernel_options);
    LockOrderAnalyzer analyzer;
    kernel.set_lock_observer(&analyzer);
    InvertedLocker& host = kernel.CreateLocal<InvertedLocker>();
    host.Spawn(host.LockAB());
    kernel.Run();
    host.Spawn(host.LockBA());
    kernel.Run();
    ASSERT_EQ(analyzer.violations().size(), 1u) << analyzer.ToString();
    EXPECT_EQ(analyzer.violations().front().kind,
              LockOrderAnalyzer::LockViolation::Kind::kOrderCycle);
    kernel.set_lock_observer(nullptr);
  }
}

TEST(VerifyShellTest, LockdepSelfTestRunsUnderShardedKernels) {
  for (int shards : {2, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    KernelOptions kernel_options;
    kernel_options.shards = shards;
    Kernel kernel(kernel_options);
    EdenShell shell(kernel);
    ShellResult r = shell.Run("lockdep selftest");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_NE(Joined(r).find("selftest passed"), std::string::npos);
  }
}

// ---- The shell's audit command.

TEST(VerifyShellTest, AuditCommandLifecycle) {
  KernelOptions kernel_options;
  kernel_options.shards = 2;
  Kernel kernel(kernel_options);
  EdenShell shell(kernel);
  ASSERT_TRUE(shell.Run("audit on").ok);
  ASSERT_TRUE(shell.Run("echo a b c | upper | collect").ok);
  ShellResult r = shell.Run("audit show");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(Joined(r).find("run digest"), std::string::npos) << Joined(r);
  EXPECT_NE(Joined(r).find("certified deterministic"), std::string::npos);
  r = shell.Run("audit json");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(Joined(r).find("eden-run-digest-v1"), std::string::npos);
  ShellResult bad = shell.Run("audit save /nonexistent-dir/audit.json");
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("audit save: cannot open file"), std::string::npos)
      << bad.error;
  ASSERT_TRUE(shell.Run("audit clear").ok);
  EXPECT_EQ(shell.audit().events(), 0u);
  ASSERT_TRUE(shell.Run("audit off").ok);
  EXPECT_FALSE(shell.Run("audit frobnicate").ok);
}

TEST(VerifyShellTest, DoctorVerdictCarriesAuditOutcome) {
  KernelOptions kernel_options;
  kernel_options.shards = 2;
  Kernel kernel(kernel_options);
  EdenShell shell(kernel);
  ASSERT_TRUE(shell.Run("trace on").ok);
  ASSERT_TRUE(shell.Run("audit on").ok);
  ASSERT_TRUE(shell.Run("echo a b c | upper | collect").ok);
  ShellResult r = shell.Run("doctor");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(Joined(r).find("audit certified (digest 0x"), std::string::npos)
      << Joined(r);
}

TEST(VerifyWiringTest, MonitorRecordsShardRaces) {
  InvariantMonitor monitor;
  monitor.OnShardRace(42, Uid(), "window-undercut on shard 1: ...");
  ASSERT_EQ(monitor.violations().size(), 1u);
  EXPECT_EQ(monitor.violations().front().kind,
            InvariantMonitor::Violation::Kind::kShardRace);
  EXPECT_NE(monitor.ToString().find("shard-race"), std::string::npos);
}

TEST(VerifyWiringTest, DoctorVerdictCarriesAuditAnnotation) {
  Diagnosis certified;
  certified.verdict = "verdict: bottleneck: filter1";
  certified.AnnotateAudit(1234, 0, "0x00000000deadbeef");
  EXPECT_NE(certified.verdict.find("verdict: bottleneck"), std::string::npos);
  EXPECT_NE(certified.verdict.find("audit certified (digest 0x00000000deadbeef)"),
            std::string::npos);

  Diagnosis raced;
  raced.verdict = "verdict: bottleneck: filter1";
  raced.AnnotateAudit(1234, 2, "0x00000000deadbeef");
  EXPECT_NE(raced.verdict.find("audit: 2 shard-race violations"),
            std::string::npos);
}

// ---- Doc drift guard: STATIC_ANALYSIS.md's rule table vs Rules().

TEST(DocDriftTest, StaticAnalysisDocMatchesRuleTable) {
  // EDEN_SOURCE_DIR is stamped by tests/CMakeLists.txt. Every rule in
  // PipelineLinter::Rules() must appear as a table row `| ASCNNN | sev |`
  // whose severity cell names the rule's worst severity, and the doc must
  // not list rules the linter no longer has.
  std::ifstream doc(std::string(EDEN_SOURCE_DIR) + "/STATIC_ANALYSIS.md");
  ASSERT_TRUE(doc.is_open()) << "cannot open STATIC_ANALYSIS.md";
  std::map<std::string, std::string> doc_severity;  // id -> severity cell
  std::string line;
  while (std::getline(doc, line)) {
    if (line.rfind("| ASC", 0) != 0) {
      continue;
    }
    size_t id_end = line.find(' ', 2);
    ASSERT_NE(id_end, std::string::npos) << line;
    std::string id = line.substr(2, id_end - 2);
    size_t sev_start = line.find('|', 1);
    ASSERT_NE(sev_start, std::string::npos) << line;
    size_t sev_end = line.find('|', sev_start + 1);
    ASSERT_NE(sev_end, std::string::npos) << line;
    doc_severity[id] = line.substr(sev_start + 1, sev_end - sev_start - 1);
  }
  const std::vector<PipelineLinter::RuleInfo>& rules = PipelineLinter::Rules();
  EXPECT_EQ(doc_severity.size(), rules.size())
      << "STATIC_ANALYSIS.md rule table and PipelineLinter::Rules() have "
         "drifted apart";
  for (const PipelineLinter::RuleInfo& rule : rules) {
    auto it = doc_severity.find(std::string(rule.id));
    ASSERT_NE(it, doc_severity.end())
        << rule.id << " missing from STATIC_ANALYSIS.md";
    EXPECT_NE(it->second.find(verify::SeverityName(rule.worst)),
              std::string::npos)
        << rule.id << ": doc severity cell '" << it->second
        << "' does not mention '" << verify::SeverityName(rule.worst) << "'";
  }
}

}  // namespace
}  // namespace eden
