#include "src/eden/verify/lint.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>

namespace eden::verify {

std::string_view SeverityName(Severity severity) {
  return severity == Severity::kError ? "error" : "warning";
}

std::string LintDiagnostic::ToString() const {
  std::string out = rule + " [" + std::string(SeverityName(severity)) + "] ";
  if (!stage_name.empty()) {
    out += stage_name + ": ";
  }
  out += message;
  if (!fix_hint.empty()) {
    out += " (fix: " + fix_hint + ")";
  }
  return out;
}

size_t LintReport::error_count() const {
  return static_cast<size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [](const LintDiagnostic& d) {
                      return d.severity == Severity::kError;
                    }));
}

size_t LintReport::warning_count() const {
  return diagnostics.size() - error_count();
}

bool LintReport::HasRule(std::string_view rule) const {
  return std::any_of(diagnostics.begin(), diagnostics.end(),
                     [rule](const LintDiagnostic& d) { return d.rule == rule; });
}

std::string LintReport::Summary(size_t max_items) const {
  std::string out;
  size_t listed = 0;
  for (const LintDiagnostic& d : diagnostics) {
    if (d.severity != Severity::kError) {
      continue;
    }
    if (listed == max_items) {
      out += ", ...";
      break;
    }
    if (listed > 0) {
      out += ", ";
    }
    out += d.rule;
    if (!d.stage_name.empty()) {
      out += " at " + d.stage_name;
    }
    listed++;
  }
  return out;
}

std::string LintReport::ToString() const {
  std::ostringstream out;
  out << "pipeline lint: " << error_count() << " error(s), "
      << warning_count() << " warning(s)\n";
  for (const LintDiagnostic& d : diagnostics) {
    out << "  " << d.ToString() << "\n";
  }
  if (diagnostics.empty()) {
    out << "  topology is well-formed\n";
  }
  return out.str();
}

Value LintReport::ToValue() const {
  Value v;
  v.Set("errors", Value(static_cast<int64_t>(error_count())));
  v.Set("warnings", Value(static_cast<int64_t>(warning_count())));
  ValueList list;
  for (const LintDiagnostic& d : diagnostics) {
    Value entry;
    entry.Set("rule", Value(d.rule));
    entry.Set("severity", Value(std::string(SeverityName(d.severity))));
    if (!d.stage.IsNil()) {
      entry.Set("stage", Value(d.stage));
    }
    entry.Set("stage_name", Value(d.stage_name));
    entry.Set("message", Value(d.message));
    entry.Set("fix_hint", Value(d.fix_hint));
    list.push_back(std::move(entry));
  }
  v.Set("diagnostics", Value(std::move(list)));
  return v;
}

namespace {

// The linter works on stage indices; edges are resolved once up front.
struct Graph {
  const TopologySpec& spec;
  std::map<Uid, size_t> index;                 // uid -> stage index
  std::vector<std::vector<size_t>> out;        // data-flow adjacency
  std::vector<std::vector<size_t>> out_edges;  // edge indices per stage
  std::vector<std::vector<size_t>> in_edges;

  explicit Graph(const TopologySpec& s) : spec(s) {
    for (size_t i = 0; i < s.stages.size(); ++i) {
      index.emplace(s.stages[i].uid, i);
    }
    out.resize(s.stages.size());
    out_edges.resize(s.stages.size());
    in_edges.resize(s.stages.size());
    for (size_t e = 0; e < s.edges.size(); ++e) {
      auto from = index.find(s.edges[e].from);
      auto to = index.find(s.edges[e].to);
      if (from == index.end() || to == index.end()) {
        continue;  // dangling endpoints are reported by ASC004
      }
      out[from->second].push_back(to->second);
      out_edges[from->second].push_back(e);
      in_edges[to->second].push_back(e);
    }
  }
};

class Linter {
 public:
  explicit Linter(const TopologySpec& spec) : spec_(spec), graph_(spec) {}

  LintReport Run() {
    CheckFanOut();            // ASC001
    CheckFanIn();             // ASC002
    CheckCycles();            // ASC003
    CheckReachability();      // ASC004
    CheckCapabilities();      // ASC005
    CheckRecoveryKnobs();     // ASC006
    CheckLazyDemand();        // ASC007
    CheckJunctions();         // ASC008
    CheckWatermarks();        // ASC009
    CheckLookahead();         // ASC010
    CheckPlacement();         // ASC011
    CheckLookaheadHeadroom(); // ASC012
    return std::move(report_);
  }

 private:
  void Report(std::string_view rule, Severity severity, const Uid& stage,
              std::string message, std::string fix_hint) {
    LintDiagnostic d;
    d.rule = std::string(rule);
    d.severity = severity;
    d.stage = stage;
    d.stage_name = stage.IsNil() ? "" : spec_.NameOf(stage);
    d.message = std::move(message);
    d.fix_hint = std::move(fix_hint);
    report_.diagnostics.push_back(std::move(d));
  }

  // A wire's stream identity under §5: capability UID if minted, else the
  // declared channel name. Distinct capabilities are distinct streams even
  // when they share a name — that is the sanctioned fan-out escape.
  static std::string StreamKey(const EdgeSpec& edge) {
    if (!edge.channel_uid.IsNil()) {
      return "cap:" + edge.channel_uid.ToString();
    }
    return "name:" + edge.channel;
  }

  // ASC001 — §5: "read only transput permits arbitrary fan-in but no
  // fan-out". Two pull wires leaving one server on the same channel
  // identifier would make two readers consume one demand-driven stream;
  // each datum goes to whichever Transfer arrives first.
  void CheckFanOut() {
    std::map<std::pair<Uid, std::string>, std::vector<const EdgeSpec*>> groups;
    for (const EdgeSpec& edge : spec_.edges) {
      if (edge.mode == EdgeSpec::Mode::kPull) {
        groups[{edge.from, StreamKey(edge)}].push_back(&edge);
      }
    }
    for (const auto& [key, edges] : groups) {
      if (edges.size() < 2) {
        continue;
      }
      std::string readers;
      for (const EdgeSpec* edge : edges) {
        if (!readers.empty()) {
          readers += ", ";
        }
        readers += spec_.NameOf(edge->to);
      }
      Report("ASC001", Severity::kError, key.first,
             "read-only fan-out: channel '" + edges.front()->channel +
                 "' is pulled by " + std::to_string(edges.size()) +
                 " readers (" + readers + "); each datum would go to " +
                 "whichever Transfer lands first",
             "mint a distinct capability channel UID per reader (§5 "
             "OpenChannel), or interpose a copying filter");
    }
  }

  // ASC002 — the §5 dual: write-only transput permits fan-out but no
  // fan-in. Two writers pushing one acceptor channel interleave
  // nondeterministically into a stream the acceptor cannot separate.
  void CheckFanIn() {
    std::map<std::pair<Uid, std::string>, std::vector<const EdgeSpec*>> groups;
    for (const EdgeSpec& edge : spec_.edges) {
      if (edge.mode == EdgeSpec::Mode::kPush) {
        groups[{edge.to, StreamKey(edge)}].push_back(&edge);
      }
    }
    for (const auto& [key, edges] : groups) {
      if (edges.size() < 2) {
        continue;
      }
      std::string writers;
      for (const EdgeSpec* edge : edges) {
        if (!writers.empty()) {
          writers += ", ";
        }
        writers += spec_.NameOf(edge->from);
      }
      Report("ASC002", Severity::kError, key.first,
             "write-only fan-in: channel '" + edges.front()->channel +
                 "' is pushed by " + std::to_string(edges.size()) +
                 " writers (" + writers + "); their items interleave "
                 "nondeterministically in one stream",
             "mint a distinct capability channel UID per writer (§5), or "
             "interpose an explicit merge stage");
    }
  }

  // ASC003 — a cycle in the stream graph: demand (read-only) or data
  // (write-only) chases its own tail and the run never quiesces.
  void CheckCycles() {
    const size_t n = spec_.stages.size();
    // 0 = unvisited, 1 = on stack, 2 = done.
    std::vector<int> state(n, 0);
    std::vector<size_t> stack;
    for (size_t start = 0; start < n; ++start) {
      if (state[start] != 0) {
        continue;
      }
      if (Dfs(start, state, stack)) {
        return;  // one cycle report is enough to name the defect
      }
    }
  }

  bool Dfs(size_t node, std::vector<int>& state, std::vector<size_t>& stack) {
    state[node] = 1;
    stack.push_back(node);
    for (size_t next : graph_.out[node]) {
      if (state[next] == 1) {
        std::string path;
        bool in_cycle = false;
        for (size_t s : stack) {
          if (s == next) {
            in_cycle = true;
          }
          if (in_cycle) {
            path += spec_.stages[s].name + " -> ";
          }
        }
        path += spec_.stages[next].name;
        Report("ASC003", Severity::kError, spec_.stages[next].uid,
               "cycle in the stream graph: " + path,
               "break the loop or route feedback through a distinct "
               "channel with an explicit termination condition");
        stack.pop_back();
        state[node] = 2;
        return true;
      }
      if (state[next] == 0 && Dfs(next, state, stack)) {
        stack.pop_back();
        state[node] = 2;
        return true;
      }
    }
    stack.pop_back();
    state[node] = 2;
    return false;
  }

  // ASC004 — every stage must lie on a source-to-sink path: a stage no
  // source reaches never sees data (it hangs or is dead weight); a stage
  // that reaches no sink produces data nobody observes.
  void CheckReachability() {
    const size_t n = spec_.stages.size();
    std::vector<bool> from_source(n, false);
    std::vector<bool> to_sink(n, false);
    std::vector<size_t> work;
    for (size_t i = 0; i < n; ++i) {
      if (spec_.stages[i].is_source) {
        from_source[i] = true;
        work.push_back(i);
      }
    }
    while (!work.empty()) {
      size_t node = work.back();
      work.pop_back();
      for (size_t next : graph_.out[node]) {
        if (!from_source[next]) {
          from_source[next] = true;
          work.push_back(next);
        }
      }
    }
    // Reverse reachability to a sink.
    std::vector<std::vector<size_t>> rin(n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t next : graph_.out[i]) {
        rin[next].push_back(i);
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if (spec_.stages[i].is_sink) {
        to_sink[i] = true;
        work.push_back(i);
      }
    }
    while (!work.empty()) {
      size_t node = work.back();
      work.pop_back();
      for (size_t prev : rin[node]) {
        if (!to_sink[prev]) {
          to_sink[prev] = true;
          work.push_back(prev);
        }
      }
    }
    for (size_t i = 0; i < n; ++i) {
      const StageSpec& stage = spec_.stages[i];
      if (graph_.in_edges[i].empty() && graph_.out_edges[i].empty() &&
          !(stage.is_source && stage.is_sink)) {
        Report("ASC004", Severity::kError, stage.uid,
               "orphan stage: no wire connects it to the pipeline",
               "connect it or remove it from the topology");
        continue;
      }
      if (!from_source[i]) {
        Report("ASC004", Severity::kError, stage.uid,
               "unreachable stage: no source feeds it, so it waits forever",
               "wire a source (transitively) into its input");
      } else if (!to_sink[i]) {
        Report("ASC004", Severity::kWarning, stage.uid,
               "dead-end stage: no sink observes its output",
               "wire it (transitively) into a sink, or drop the stage");
      }
    }
    // Edges naming stages the spec does not declare.
    for (const EdgeSpec& edge : spec_.edges) {
      if (graph_.index.find(edge.from) == graph_.index.end()) {
        Report("ASC004", Severity::kError, edge.from,
               "wire from undeclared stage " + edge.from.Short(),
               "declare every stage the wiring references");
      }
      if (graph_.index.find(edge.to) == graph_.index.end()) {
        Report("ASC004", Severity::kError, edge.to,
               "wire to undeclared stage " + edge.to.Short(),
               "declare every stage the wiring references");
      }
    }
  }

  // ASC005 — a capability UID is minted per consumer (§5 OpenChannel); two
  // wires presenting the same UID alias one stream while claiming to be
  // distinct, which silently reintroduces the fan-out/fan-in ASC001/ASC002
  // exist to prevent.
  void CheckCapabilities() {
    std::map<Uid, std::vector<const EdgeSpec*>> claims;
    for (const EdgeSpec& edge : spec_.edges) {
      if (!edge.channel_uid.IsNil()) {
        claims[edge.channel_uid].push_back(&edge);
      }
    }
    for (const auto& [uid, edges] : claims) {
      if (edges.size() < 2) {
        continue;
      }
      Report("ASC005", Severity::kError, edges.front()->from,
             "capability channel UID " + uid.Short() + " is claimed by " +
                 std::to_string(edges.size()) +
                 " wires; a §5 capability names exactly one stream",
             "mint one capability per wire with OpenChannel");
    }
  }

  // ASC006 — the effective_retry() gating contract from the fault-tolerance
  // layer: retry/deadline knobs act only while recovery is enabled, and an
  // enabled configuration without a deadline can never detect a lost reply.
  void CheckRecoveryKnobs() {
    const RecoveryKnobs& r = spec_.recovery;
    if (r.enabled) {
      if (r.retry.deadline <= 0) {
        Report("ASC006", Severity::kError, Uid(),
               "recovery enabled with no invocation deadline: a lost reply "
               "parks the stream forever and no retry ever fires",
               "set recovery.retry.deadline above the longest legitimate reply "
               "withholding");
      }
      if (r.retry.attempts <= 0) {
        Report("ASC006", Severity::kError, Uid(),
               "recovery enabled with no retry attempts: a timed-out "
               "invocation is terminal, so deadlines only convert hangs "
               "into data loss",
               "set recovery.retry.attempts > 0");
      }
      if (r.checkpoint_every == 0) {
        Report("ASC006", Severity::kWarning, Uid(),
               "recovery enabled but checkpoint_every is 0: filters never "
               "checkpoint, so reactivation replays the entire stream",
               "set recovery.checkpoint_every to bound replay work");
      }
      if (r.probe_interval <= 0 && spec_.flavor == Flavor::kConventional) {
        Report("ASC006", Severity::kWarning, Uid(),
               "conventional recovery without a probe interval: both "
               "correspondents of a crashed filter are passive, so nothing "
               "would ever reactivate it",
               "set recovery.probe_interval so the monitor pings filters");
      }
    } else if (r.retry.deadline > 0 || r.retry.attempts > 0 || r.retry.backoff > 0) {
      Report("ASC006", Severity::kWarning, Uid(),
             "retry/deadline knobs are set but recovery is disabled; the "
             "effective_retry() gating ignores them (a classic hold-back stage "
             "must never time out a Transfer)",
             "set recovery.enabled, or drop the unused knobs");
    }
  }

  // ASC007 — §4 laziness: a start-on-demand stage runs only when a Transfer
  // reaches it, and Transfers originate at an active sink. If no chain of
  // pull wires connects the lazy stage to an active sink, the first demand
  // never arrives and the pipeline silently hangs.
  void CheckLazyDemand() {
    for (size_t i = 0; i < spec_.stages.size(); ++i) {
      const StageSpec& stage = spec_.stages[i];
      if (!stage.lazy) {
        continue;
      }
      // Walk downstream along pull wires only: push wires carry data by the
      // producer's initiative, which is exactly what a lazy stage lacks.
      std::vector<bool> seen(spec_.stages.size(), false);
      std::vector<size_t> work{i};
      seen[i] = true;
      bool demanded = false;
      while (!work.empty() && !demanded) {
        size_t node = work.back();
        work.pop_back();
        for (size_t e : graph_.out_edges[node]) {
          if (spec_.edges[e].mode != EdgeSpec::Mode::kPull) {
            continue;
          }
          auto it = graph_.index.find(spec_.edges[e].to);
          if (it == graph_.index.end() || seen[it->second]) {
            continue;
          }
          const StageSpec& next = spec_.stages[it->second];
          if (next.is_sink && next.active_input) {
            demanded = true;
            break;
          }
          seen[it->second] = true;
          work.push_back(it->second);
        }
      }
      if (!demanded) {
        Report("ASC007", Severity::kError, stage.uid,
               "lazy (start-on-demand) stage that no active sink pulls: "
               "the first Transfer that would start it never arrives",
               "pull it through a chain of read-only wires ending at an "
               "active sink, or clear start_on_demand");
      }
    }
  }

  // ASC008 — §3/§4: data moves across a wire only when exactly one end is
  // active. Two active correspondents need a passive buffer between them;
  // two passive correspondents wait on each other forever.
  void CheckJunctions() {
    for (const EdgeSpec& edge : spec_.edges) {
      const StageSpec* from = spec_.Find(edge.from);
      const StageSpec* to = spec_.Find(edge.to);
      if (from == nullptr || to == nullptr) {
        continue;  // ASC004 already reported the dangling endpoint
      }
      if (edge.mode == EdgeSpec::Mode::kPull) {
        if (!from->passive_output) {
          Report("ASC008", Severity::kError, from->uid,
                 "pull wire from a stage with no passive output: '" +
                     to->name + "' would invoke Transfer on a stage that "
                     "does not serve it",
                 "give the producer a passive output (server) end, or make "
                 "the wire a push through a PassiveBuffer");
        }
        if (!to->active_input) {
          Report("ASC008", Severity::kError, to->uid,
                 "pull wire into a stage with no active input: nobody on "
                 "this wire ever issues the Transfer, so no data moves",
                 "give the consumer an active input (reader) end");
        }
      } else {
        if (!from->active_output) {
          Report("ASC008", Severity::kError, from->uid,
                 "push wire from a stage with no active output: nobody on "
                 "this wire ever issues the Push, so no data moves",
                 "give the producer an active output (writer) end");
        }
        if (!to->passive_input) {
          Report("ASC008", Severity::kError, to->uid,
                 "push wire into a stage with no passive input: '" +
                     from->name + "' would invoke Push on a stage that "
                     "does not accept it",
                 "give the consumer a passive input (acceptor) end, or "
                 "interpose a PassiveBuffer (§3)");
        }
      }
    }
  }

  // ASC009 — watermark sanity for stages declaring a bounded queue. Flow
  // control is a hysteresis pair: producers block at hiwat and are released
  // below lowat. lowat above hiwat inverts the hysteresis — the release
  // condition is already false at the moment of blocking and can only get
  // falser, so a blocked producer parks forever. A zero hiwat on a passive
  // input withholds the very first Push reply with nothing draining the
  // queue ahead of it; on a passive *output* a zero hiwat is the sanctioned
  // §4 pure-laziness configuration when the stage is lazy, and a likely
  // misconfiguration (warning) when it is not.
  void CheckWatermarks() {
    for (const StageSpec& stage : spec_.stages) {
      if (!stage.bounded) {
        continue;
      }
      if (stage.lowat > stage.hiwat) {
        Report("ASC009", Severity::kError, stage.uid,
               "lowat " + std::to_string(stage.lowat) + " above hiwat " +
                   std::to_string(stage.hiwat) +
                   ": producers blocked at hiwat are released only below "
                   "lowat, which never happens",
               "set lowat <= hiwat (or 0 to derive hiwat/2)");
        continue;
      }
      if (stage.hiwat == 0 && stage.passive_input) {
        Report("ASC009", Severity::kError, stage.uid,
               "zero hiwat on a passive input: the first Push reply is "
               "withheld with nothing queued ahead to drain, so the "
               "producer parks forever",
               "set hiwat >= 1 on the acceptor channel");
      } else if (stage.hiwat == 0 && !stage.lazy) {
        Report("ASC009", Severity::kWarning, stage.uid,
               "zero hiwat (pure laziness) on a stage not marked lazy: "
               "every Write parks until demand arrives, which is usually "
               "an unintended loss of work-ahead",
               "set a nonzero work-ahead/hiwat, or mark the stage "
               "start-on-demand");
      }
    }
  }

  // ---- The concurrency rules (ASC010-ASC012). They quantify over the
  // spec's node placement and cost model, so they run only when the plan
  // bridge filled the concurrency context (has_concurrency). The paper's
  // determinism story (and DESIGN.md "Sharded kernel") rests on conservative
  // windows: a shard may run ahead only up to the cheapest message that
  // could still arrive from a peer, so the safe lookahead is the minimum
  // cost-model latency over the cross-shard edges that actually exist.

  // The cheapest message that can cross shards in this topology: the min of
  // MessageCost(0, from, to) over edges whose endpoints land on different
  // shards. Returns false when no edge crosses (single shard, or co-located
  // placement) — there is nothing for lookahead to undercut.
  bool MinCrossShardCost(Tick& min_cost, size_t& edge_index) const {
    bool found = false;
    for (size_t e = 0; e < spec_.edges.size(); ++e) {
      const StageSpec* from = spec_.Find(spec_.edges[e].from);
      const StageSpec* to = spec_.Find(spec_.edges[e].to);
      if (from == nullptr || to == nullptr) {
        continue;  // ASC004 already reported the dangling endpoint
      }
      if (spec_.ShardOf(*from) == spec_.ShardOf(*to)) {
        continue;
      }
      // A pull edge moves the Transfer invocation consumer -> producer and
      // the reply back; both directions cross, so the invocation cost (an
      // empty message) bounds the cheapest crossing either way.
      Tick cost = spec_.costs.MessageCost(0, from->node, to->node);
      if (!found || cost < min_cost) {
        found = true;
        min_cost = cost;
        edge_index = e;
      }
    }
    return found;
  }

  // ASC010 — the static form of the kernel's runtime lookahead abort: a
  // configured KernelOptions::lookahead larger than the cheapest cross-shard
  // message lets a shard's window promise exceed what a peer can keep, and
  // the first such send aborts the run mid-flight. The same arithmetic the
  // kernel applies per send (cost model, shard placement) is decidable here,
  // before any Eject exists.
  void CheckLookahead() {
    if (!spec_.has_concurrency || spec_.shards <= 1 || spec_.lookahead <= 0) {
      return;  // lookahead 0 derives the conservative invocation-send floor
    }
    Tick min_cost = 0;
    size_t edge = 0;
    if (!MinCrossShardCost(min_cost, edge)) {
      return;
    }
    if (spec_.lookahead > min_cost) {
      Report("ASC010", Severity::kError, spec_.edges[edge].from,
             "configured lookahead " + std::to_string(spec_.lookahead) +
                 " exceeds the minimum cross-shard message latency " +
                 std::to_string(min_cost) + " on edge " +
                 spec_.NameOf(spec_.edges[edge].from) + " -> " +
                 spec_.NameOf(spec_.edges[edge].to) +
                 "; a parallel run would abort on the first undercut",
             "set KernelOptions::lookahead <= " + std::to_string(min_cost) +
                 " (or 0 to derive the safe default)");
    }
  }

  // ASC011 — placement headroom: a connected graph split across k shards
  // needs only k-1 cut edges, but the distinct_nodes round robin assigns
  // consecutive stages to consecutive shards and cuts *every* edge. Each
  // unnecessary cut turns an intra-shard event into mailbox traffic and a
  // window-barrier dependency.
  void CheckPlacement() {
    if (!spec_.has_concurrency || spec_.shards <= 1) {
      return;
    }
    size_t cross = 0;
    std::set<int> used;
    for (const StageSpec& stage : spec_.stages) {
      used.insert(spec_.ShardOf(stage));
    }
    for (const EdgeSpec& edge : spec_.edges) {
      const StageSpec* from = spec_.Find(edge.from);
      const StageSpec* to = spec_.Find(edge.to);
      if (from != nullptr && to != nullptr &&
          spec_.ShardOf(*from) != spec_.ShardOf(*to)) {
        cross++;
      }
    }
    size_t min_cuts = used.empty() ? 0 : used.size() - 1;
    if (cross > min_cuts) {
      Report("ASC011", Severity::kWarning, Uid(),
             "shard placement cuts " + std::to_string(cross) + " of " +
                 std::to_string(spec_.edges.size()) + " pipeline edges; " +
                 std::to_string(used.size()) +
                 " shards need only " + std::to_string(min_cuts) +
                 " cuts of a connected chain — every extra cut is mailbox "
                 "traffic and a window-barrier dependency",
             "co-locate adjacent stages (PipelineOptions::partition_shard, "
             "or Kernel::AddNode shard hints)");
    }
  }

  // ASC012 — lookahead headroom, the flip side of ASC010: every edge that
  // actually crosses shards here is node-to-node, so it pays the inter-node
  // latency on top of the invocation send — but a configuration that leaves
  // lookahead at 0 gets only the conservative invocation-send floor (the
  // kernel cannot rule out cheaper external-driver traffic statically).
  // Wider windows mean fewer barriers per unit of virtual time. Warning, not
  // error: the bound holds only while no external driver invocation crosses
  // shards mid-run (a quiescence-driven Run() satisfies that).
  void CheckLookaheadHeadroom() {
    if (!spec_.has_concurrency || spec_.shards <= 1) {
      return;
    }
    Tick min_cost = 0;
    size_t edge = 0;
    if (!MinCrossShardCost(min_cost, edge)) {
      return;
    }
    Tick effective = spec_.lookahead > 0 ? spec_.lookahead
                                         : spec_.costs.invocation_send;
    if (effective < min_cost) {
      Report("ASC012", Severity::kWarning, Uid(),
             "effective lookahead " + std::to_string(effective) +
                 " is below the derivable node-to-node bound " +
                 std::to_string(min_cost) +
                 ": every cross-shard edge pays the inter-node latency, so "
                 "windows are narrower (more barriers) than the cost model "
                 "requires",
             "set KernelOptions::lookahead = " + std::to_string(min_cost) +
                 " if no external-driver invocation crosses shards mid-run");
    }
  }

  const TopologySpec& spec_;
  Graph graph_;
  LintReport report_;
};

}  // namespace

LintReport PipelineLinter::Lint(const TopologySpec& topology) const {
  return Linter(topology).Run();
}

const std::vector<PipelineLinter::RuleInfo>& PipelineLinter::Rules() {
  static const std::vector<RuleInfo> kRules = {
      {"ASC001", Severity::kError,
       "read-only fan-out: one server channel pulled by several readers"},
      {"ASC002", Severity::kError,
       "write-only fan-in: one acceptor channel pushed by several writers"},
      {"ASC003", Severity::kError, "cycle in the stream graph"},
      {"ASC004", Severity::kError,
       "orphan or unreachable stage (no source-to-sink path)"},
      {"ASC005", Severity::kError,
       "duplicate capability channel UID claim"},
      {"ASC006", Severity::kError,
       "recovery knob inconsistency (effective_retry gating)"},
      {"ASC007", Severity::kError,
       "lazy stage that no active sink ever pulls"},
      {"ASC008", Severity::kError,
       "port discipline mismatch at a junction (active/active or "
       "passive/passive)"},
      {"ASC009", Severity::kError,
       "watermark misconfiguration (lowat above hiwat, or zero-hiwat "
       "passive input)"},
      {"ASC010", Severity::kError,
       "configured lookahead exceeds the minimum cross-shard message "
       "latency (the sharded kernel would abort at runtime)"},
      {"ASC011", Severity::kWarning,
       "shard placement cuts edges that could be co-located (k shards "
       "need only k-1 cuts of a connected chain)"},
      {"ASC012", Severity::kWarning,
       "larger safe lookahead derivable from the cost model for a "
       "node-to-node topology (bound in the fix hint)"},
  };
  return kRules;
}

}  // namespace eden::verify
