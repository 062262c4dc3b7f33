#include "src/fs/transaction.h"

#include <memory>
#include <utility>

#include "src/core/framing.h"

namespace eden {
namespace {

std::optional<Uid> TxnArg(const InvocationContext& ctx) {
  return ctx.Arg("txn").AsUid();
}

}  // namespace

// ----------------------------------------------------------------------
// TFile

TFile::TFile(Kernel& kernel, std::string initial_text) : Eject(kernel, kType) {
  for (const Value& line : SplitLines(initial_text)) {
    base_.push_back(*line.AsStr());
  }
  Register("TRead", [this](InvocationContext ctx) { HandleTRead(std::move(ctx)); });
  Register("TWrite", [this](InvocationContext ctx) { HandleTWrite(std::move(ctx)); });
  Register("TAppend",
           [this](InvocationContext ctx) { HandleTAppend(std::move(ctx)); });
  Register("TSize", [this](InvocationContext ctx) { HandleTSize(std::move(ctx)); });
  Register("Prepare",
           [this](InvocationContext ctx) { HandlePrepare(std::move(ctx)); });
  Register("CommitFile",
           [this](InvocationContext ctx) { HandleCommitFile(std::move(ctx)); });
  Register("AbortFile",
           [this](InvocationContext ctx) { HandleAbortFile(std::move(ctx)); });
  // OpenShadow {txn, parent?}: start a shadow, inheriting the parent
  // transaction's pending view (nested transactions, §7 / [10]).
  Register("OpenShadow", [this](InvocationContext ctx) {
    auto txn = TxnArg(ctx);
    if (!txn) {
      ctx.ReplyError(StatusCode::kInvalidArgument, "OpenShadow needs txn");
      return;
    }
    if (shadows_.count(*txn) > 0) {
      ctx.Reply();  // idempotent
      return;
    }
    Shadow shadow;
    auto parent = ctx.Arg("parent").AsUid();
    if (parent) {
      auto it = shadows_.find(*parent);
      if (it != shadows_.end()) {
        shadow = it->second;  // child sees the parent's uncommitted view
        shadow.prepared = false;
      } else {
        shadow.size = static_cast<int64_t>(base_.size());
      }
    } else {
      shadow.size = static_cast<int64_t>(base_.size());
    }
    shadows_[*txn] = std::move(shadow);
    ctx.Reply();
  });
  // MergeShadow {txn, into}: child commit — fold the child's view into the
  // parent's shadow.
  Register("MergeShadow", [this](InvocationContext ctx) {
    auto txn = TxnArg(ctx);
    auto into = ctx.Arg("into").AsUid();
    if (!txn || !into) {
      ctx.ReplyError(StatusCode::kInvalidArgument, "MergeShadow needs txn, into");
      return;
    }
    auto child = shadows_.find(*txn);
    if (child == shadows_.end()) {
      ctx.Reply();  // never touched this file
      return;
    }
    Shadow& parent = ShadowFor(*into);
    // The child started as a copy of the parent, so its overlay subsumes it.
    parent.writes = std::move(child->second.writes);
    parent.size = child->second.size;
    shadows_.erase(child);
    ctx.Reply();
  });
  // ResolveShadows {manager}: presumed-abort recovery after a crash — ask
  // the coordinator for each prepared shadow's durable outcome.
  RegisterTask("ResolveShadows", [this](InvocationContext ctx) -> Task<void> {
    auto manager = ctx.Arg("manager").AsUid();
    if (!manager) {
      ctx.ReplyError(StatusCode::kInvalidArgument, "ResolveShadows needs manager");
      co_return;
    }
    std::vector<Uid> prepared;
    for (const auto& [txn, shadow] : shadows_) {
      if (shadow.prepared) {
        prepared.push_back(txn);
      }
    }
    int64_t applied = 0;
    int64_t discarded = 0;
    for (const Uid& txn : prepared) {
      InvokeResult r = co_await Invoke(*manager, "Status",
                                       Value().Set("txn", Value(txn)));
      bool committed = r.ok() && r.value().Field("state").StrOr("") == "committed";
      auto it = shadows_.find(txn);
      if (it == shadows_.end()) {
        continue;
      }
      if (committed) {
        Shadow& shadow = it->second;
        base_.resize(static_cast<size_t>(shadow.size));
        for (const auto& [index, line] : shadow.writes) {
          if (index >= 0 && static_cast<size_t>(index) < base_.size()) {
            base_[static_cast<size_t>(index)] = line;
          }
        }
        applied++;
      } else {
        discarded++;  // presumed abort
      }
      shadows_.erase(it);
    }
    Checkpoint();
    ctx.Reply(Value().Set("applied", Value(applied)).Set("discarded",
                                                         Value(discarded)));
  });
}

void TFile::RegisterType(Kernel& kernel) {
  kernel.types().Register(kType,
                          [](Kernel& k) { return std::make_unique<TFile>(k); });
}

TFile::Shadow& TFile::ShadowFor(const Uid& txn) {
  auto it = shadows_.find(txn);
  if (it == shadows_.end()) {
    Shadow shadow;
    shadow.size = static_cast<int64_t>(base_.size());
    it = shadows_.emplace(txn, std::move(shadow)).first;
  }
  return it->second;
}

std::optional<std::string> TFile::ReadThrough(const Shadow& shadow,
                                              int64_t index) const {
  if (index < 0 || index >= shadow.size) {
    return std::nullopt;
  }
  auto it = shadow.writes.find(index);
  if (it != shadow.writes.end()) {
    return it->second;
  }
  if (static_cast<size_t>(index) < base_.size()) {
    return base_[static_cast<size_t>(index)];
  }
  return std::string();  // hole from an extension write
}

void TFile::HandleTRead(InvocationContext ctx) {
  auto txn = TxnArg(ctx);
  auto index = ctx.Arg("index").AsInt();
  if (!txn || !index) {
    ctx.ReplyError(StatusCode::kInvalidArgument, "TRead needs txn, index");
    return;
  }
  std::optional<std::string> line = ReadThrough(ShadowFor(*txn), *index);
  if (!line) {
    ctx.ReplyError(StatusCode::kNotFound, "index out of range");
    return;
  }
  ctx.Reply(Value().Set("line", Value(*line)));
}

void TFile::HandleTWrite(InvocationContext ctx) {
  auto txn = TxnArg(ctx);
  auto index = ctx.Arg("index").AsInt();
  const std::string* line = ctx.Arg("line").AsStr();
  if (!txn || !index || line == nullptr) {
    ctx.ReplyError(StatusCode::kInvalidArgument, "TWrite needs txn, index, line");
    return;
  }
  Shadow& shadow = ShadowFor(*txn);
  if (shadow.prepared) {
    ctx.ReplyError(StatusCode::kInvalidArgument, "transaction already prepared");
    return;
  }
  if (*index < 0 || *index >= shadow.size) {
    ctx.ReplyError(StatusCode::kNotFound, "index out of range");
    return;
  }
  shadow.writes[*index] = *line;
  ctx.Reply();
}

void TFile::HandleTAppend(InvocationContext ctx) {
  auto txn = TxnArg(ctx);
  const std::string* line = ctx.Arg("line").AsStr();
  if (!txn || line == nullptr) {
    ctx.ReplyError(StatusCode::kInvalidArgument, "TAppend needs txn, line");
    return;
  }
  Shadow& shadow = ShadowFor(*txn);
  if (shadow.prepared) {
    ctx.ReplyError(StatusCode::kInvalidArgument, "transaction already prepared");
    return;
  }
  shadow.writes[shadow.size] = *line;
  shadow.size++;
  ctx.Reply(Value().Set("index", Value(shadow.size - 1)));
}

void TFile::HandleTSize(InvocationContext ctx) {
  auto txn = TxnArg(ctx);
  if (!txn) {
    ctx.ReplyError(StatusCode::kInvalidArgument, "TSize needs txn");
    return;
  }
  ctx.Reply(Value().Set("lines", Value(ShadowFor(*txn).size)));
}

void TFile::HandlePrepare(InvocationContext ctx) {
  auto txn = TxnArg(ctx);
  if (!txn) {
    ctx.ReplyError(StatusCode::kInvalidArgument, "Prepare needs txn");
    return;
  }
  ShadowFor(*txn).prepared = true;
  // Durability point for this participant: the prepared shadow goes to
  // stable storage with the base contents.
  Checkpoint();
  ctx.Reply();
}

void TFile::HandleCommitFile(InvocationContext ctx) {
  auto txn = TxnArg(ctx);
  if (!txn) {
    ctx.ReplyError(StatusCode::kInvalidArgument, "CommitFile needs txn");
    return;
  }
  auto it = shadows_.find(*txn);
  if (it == shadows_.end()) {
    ctx.Reply();  // idempotent: already applied or never touched
    return;
  }
  Shadow& shadow = it->second;
  base_.resize(static_cast<size_t>(shadow.size));
  for (const auto& [index, line] : shadow.writes) {
    if (index >= 0 && static_cast<size_t>(index) < base_.size()) {
      base_[static_cast<size_t>(index)] = line;
    }
  }
  shadows_.erase(it);
  Checkpoint();  // "the data is committed to stable storage by Checkpointing"
  ctx.Reply();
}

void TFile::HandleAbortFile(InvocationContext ctx) {
  auto txn = TxnArg(ctx);
  if (!txn) {
    ctx.ReplyError(StatusCode::kInvalidArgument, "AbortFile needs txn");
    return;
  }
  auto it = shadows_.find(*txn);
  if (it != shadows_.end()) {
    bool was_prepared = it->second.prepared;
    shadows_.erase(it);
    if (was_prepared) {
      Checkpoint();  // durably forget the prepared state
    }
  }
  ctx.Reply();
}

Value TFile::SaveState() {
  ValueList lines;
  lines.reserve(base_.size());
  for (const std::string& line : base_) {
    lines.push_back(Value(line));
  }
  Value state;
  state.Set("lines", Value(std::move(lines)));
  // Only prepared shadows are durable; active ones die with the instance
  // (a crashed participant presumes abort for unprepared work).
  Value prepared;
  for (const auto& [txn, shadow] : shadows_) {
    if (!shadow.prepared) {
      continue;
    }
    Value writes;
    for (const auto& [index, line] : shadow.writes) {
      writes.Set(std::to_string(index), Value(line));
    }
    Value entry;
    entry.Set("writes", std::move(writes));
    entry.Set("size", Value(shadow.size));
    prepared.Set(txn.ToString(), std::move(entry));
  }
  state.Set("prepared", std::move(prepared));
  return state;
}

void TFile::RestoreState(const Value& state) {
  base_.clear();
  shadows_.clear();
  if (const ValueList* lines = state.Field("lines").AsList()) {
    for (const Value& line : *lines) {
      base_.push_back(line.StrOr(""));
    }
  }
  if (const ValueMap* prepared = state.Field("prepared").AsMap()) {
    for (const auto& [txn_text, entry] : *prepared) {
      auto txn = Uid::Parse(txn_text);
      if (!txn) {
        continue;
      }
      Shadow shadow;
      shadow.prepared = true;
      shadow.size = entry.Field("size").IntOr(0);
      if (const ValueMap* writes = entry.Field("writes").AsMap()) {
        for (const auto& [index_text, line] : *writes) {
          shadow.writes[std::atoll(index_text.c_str())] = line.StrOr("");
        }
      }
      shadows_[*txn] = std::move(shadow);
    }
  }
}

// ----------------------------------------------------------------
// TransactionManager

TransactionManager::TransactionManager(Kernel& kernel) : Eject(kernel, kType) {
  Register("Begin", [this](InvocationContext ctx) { HandleBegin(std::move(ctx)); });
  RegisterTask("Enlist", [this](InvocationContext ctx) -> Task<void> {
    auto txn = ctx.Arg("txn").AsUid();
    auto file = ctx.Arg("file").AsUid();
    if (!txn || !file) {
      ctx.ReplyError(StatusCode::kInvalidArgument, "Enlist needs txn, file");
      co_return;
    }
    auto it = transactions_.find(*txn);
    if (it == transactions_.end() || it->second.state != TxnState::kActive) {
      ctx.ReplyError(StatusCode::kNotFound, "no such active transaction");
      co_return;
    }
    Value args;
    args.Set("txn", Value(*txn));
    if (!it->second.parent.IsNil()) {
      args.Set("parent", Value(it->second.parent));
    }
    InvokeResult opened = co_await Invoke(*file, "OpenShadow", std::move(args));
    if (!opened.ok()) {
      ctx.ReplyStatus(opened.status);
      co_return;
    }
    it->second.files.insert(*file);
    ctx.Reply();
  });
  RegisterTask("Commit",
               [this](InvocationContext ctx) { return HandleCommit(std::move(ctx)); });
  RegisterTask("Abort",
               [this](InvocationContext ctx) { return HandleAbort(std::move(ctx)); });
  Register("Status", [this](InvocationContext ctx) { HandleStatus(std::move(ctx)); });
}

void TransactionManager::RegisterType(Kernel& kernel) {
  kernel.types().Register(
      kType, [](Kernel& k) { return std::make_unique<TransactionManager>(k); });
}

std::string TransactionManager::StateName(TxnState state) {
  switch (state) {
    case TxnState::kActive:
      return "active";
    case TxnState::kPreparing:
      return "preparing";
    case TxnState::kCommitted:
      return "committed";
    case TxnState::kAborted:
      return "aborted";
  }
  return "unknown";
}

void TransactionManager::HandleBegin(InvocationContext ctx) {
  Txn txn;
  auto parent = ctx.Arg("parent").AsUid();
  if (parent) {
    auto it = transactions_.find(*parent);
    if (it == transactions_.end() || it->second.state != TxnState::kActive) {
      ctx.ReplyError(StatusCode::kNotFound, "no such active parent transaction");
      return;
    }
    txn.parent = *parent;
  }
  Uid id = kernel_.uids().Next();
  if (parent) {
    transactions_[*parent].children.insert(id);
  }
  transactions_[id] = std::move(txn);
  ctx.Reply(Value().Set("txn", Value(id)));
}

Task<void> TransactionManager::HandleCommit(InvocationContext ctx) {
  auto id = ctx.Arg("txn").AsUid();
  if (!id) {
    ctx.ReplyError(StatusCode::kInvalidArgument, "Commit needs txn");
    co_return;
  }
  auto it = transactions_.find(*id);
  if (it == transactions_.end() || it->second.state != TxnState::kActive) {
    ctx.ReplyError(StatusCode::kNotFound, "no such active transaction");
    co_return;
  }
  if (!it->second.children.empty()) {
    ctx.ReplyError(StatusCode::kInvalidArgument,
                   "live sub-transactions must commit or abort first");
    co_return;
  }

  if (!it->second.parent.IsNil()) {
    // Nested commit: fold this child's shadows into the parent; effects
    // become durable only when the top-level transaction commits.
    Uid parent = it->second.parent;
    std::set<Uid> files = it->second.files;
    for (const Uid& file : files) {
      InvokeResult merged = co_await Invoke(
          file, "MergeShadow",
          Value().Set("txn", Value(*id)).Set("into", Value(parent)));
      (void)merged;  // missing files simply contribute nothing
    }
    auto parent_it = transactions_.find(parent);
    if (parent_it != transactions_.end()) {
      parent_it->second.files.insert(files.begin(), files.end());
      parent_it->second.children.erase(*id);
    }
    transactions_.erase(*id);
    ctx.Reply();
    co_return;
  }

  // Top-level: two-phase commit.
  it->second.state = TxnState::kPreparing;
  std::set<Uid> files = it->second.files;
  for (const Uid& file : files) {
    InvokeResult prepared =
        co_await Invoke(file, "Prepare", Value().Set("txn", Value(*id)));
    if (!prepared.ok()) {
      co_await AbortTree(*id);
      ctx.ReplyStatus(Status(StatusCode::kUnavailable,
                             "participant failed to prepare: " +
                                 prepared.status.ToString()));
      co_return;
    }
  }
  // Commit point: the outcome is durable before any participant applies.
  outcomes_[*id] = true;
  Checkpoint();
  for (const Uid& file : files) {
    // CommitFile is idempotent; a crashed participant re-resolves via
    // ResolveShadows against our durable outcome record.
    (void)co_await Invoke(file, "CommitFile", Value().Set("txn", Value(*id)));
  }
  transactions_.erase(*id);
  ctx.Reply();
}

Task<void> TransactionManager::AbortTree(Uid txn) {
  auto it = transactions_.find(txn);
  if (it == transactions_.end()) {
    co_return;
  }
  std::set<Uid> children = it->second.children;
  for (const Uid& child : children) {
    co_await AbortTree(child);
  }
  it = transactions_.find(txn);  // children may have mutated the map
  if (it == transactions_.end()) {
    co_return;
  }
  std::set<Uid> files = it->second.files;
  Uid parent = it->second.parent;
  for (const Uid& file : files) {
    (void)co_await Invoke(file, "AbortFile", Value().Set("txn", Value(txn)));
  }
  if (parent.IsNil()) {
    outcomes_[txn] = false;
    Checkpoint();
  } else {
    auto parent_it = transactions_.find(parent);
    if (parent_it != transactions_.end()) {
      parent_it->second.children.erase(txn);
    }
  }
  transactions_.erase(txn);
}

Task<void> TransactionManager::HandleAbort(InvocationContext ctx) {
  auto id = ctx.Arg("txn").AsUid();
  if (!id) {
    ctx.ReplyError(StatusCode::kInvalidArgument, "Abort needs txn");
    co_return;
  }
  if (transactions_.count(*id) == 0) {
    ctx.ReplyError(StatusCode::kNotFound, "no such transaction");
    co_return;
  }
  co_await AbortTree(*id);
  ctx.Reply();
}

void TransactionManager::HandleStatus(InvocationContext ctx) {
  auto id = ctx.Arg("txn").AsUid();
  if (!id) {
    ctx.ReplyError(StatusCode::kInvalidArgument, "Status needs txn");
    return;
  }
  std::string state;
  auto live = transactions_.find(*id);
  if (live != transactions_.end()) {
    state = StateName(live->second.state);
  } else {
    auto outcome = outcomes_.find(*id);
    if (outcome != outcomes_.end()) {
      state = outcome->second ? "committed" : "aborted";
    } else {
      state = "unknown";  // presumed abort
    }
  }
  ctx.Reply(Value().Set("state", Value(state)));
}

Value TransactionManager::SaveState() {
  // Only outcomes are durable: active transactions die with the coordinator
  // and resolve as presumed-abort.
  Value outcomes;
  for (const auto& [txn, committed] : outcomes_) {
    outcomes.Set(txn.ToString(), Value(committed));
  }
  return Value().Set("outcomes", std::move(outcomes));
}

void TransactionManager::RestoreState(const Value& state) {
  transactions_.clear();
  outcomes_.clear();
  if (const ValueMap* outcomes = state.Field("outcomes").AsMap()) {
    for (const auto& [txn_text, committed] : *outcomes) {
      auto txn = Uid::Parse(txn_text);
      if (txn) {
        outcomes_[*txn] = committed.BoolOr(false);
      }
    }
  }
}

}  // namespace eden
