#include "src/fs/directory.h"

#include <memory>
#include <utility>

#include "src/core/stream_reader.h"

namespace eden {
namespace {

// Serves one Transfer against a listing-session table. Shared by the plain
// directory and the concatenator.
void ServeListing(std::map<Uid, std::vector<std::string>>& listings,
                  InvocationContext& ctx) {
  const TransferArgs* args = ctx.RecordOrReject<TransferArgs>();
  if (args == nullptr) {
    return;
  }
  auto uid = args->channel.AsUid();
  if (!uid) {
    ctx.ReplyError(StatusCode::kNoSuchChannel, "List first, then Transfer");
    return;
  }
  auto it = listings.find(*uid);
  if (it == listings.end()) {
    ctx.ReplyError(StatusCode::kNoSuchChannel, "unknown listing session");
    return;
  }
  int64_t max = std::max<int64_t>(args->max, 1);
  ValueList items;
  std::vector<std::string>& lines = it->second;
  size_t take = std::min<size_t>(static_cast<size_t>(max), lines.size());
  for (size_t i = 0; i < take; ++i) {
    items.push_back(Value(lines[i]));
  }
  lines.erase(lines.begin(), lines.begin() + static_cast<long>(take));
  bool end = lines.empty();
  if (end) {
    listings.erase(it);
  }
  ctx.Reply(BatchReply{std::move(items), end});
}

}  // namespace

DirectoryEject::DirectoryEject(Kernel& kernel) : Eject(kernel, kType) {
  Register("AddEntry", [this](InvocationContext ctx) {
    const std::string* name = ctx.Arg("name").AsStr();
    auto uid = ctx.Arg("uid").AsUid();
    if (name == nullptr || name->empty() || !uid) {
      ctx.ReplyError(StatusCode::kInvalidArgument, "AddEntry needs name and uid");
      return;
    }
    if (!AddEntryLocal(*name, *uid)) {
      ctx.ReplyError(StatusCode::kAlreadyExists, *name);
      return;
    }
    ctx.Reply();
  });
  Register("Lookup", [this](InvocationContext ctx) {
    const std::string* name = ctx.Arg("name").AsStr();
    if (name == nullptr) {
      ctx.ReplyError(StatusCode::kInvalidArgument, "Lookup needs a name");
      return;
    }
    auto uid = LookupLocal(*name);
    if (!uid) {
      ctx.ReplyError(StatusCode::kNotFound, *name);
      return;
    }
    ctx.Reply(Value().Set("uid", Value(*uid)));
  });
  Register("DeleteEntry", [this](InvocationContext ctx) {
    const std::string* name = ctx.Arg("name").AsStr();
    if (name == nullptr || entries_.erase(*name) == 0) {
      ctx.ReplyError(StatusCode::kNotFound, name != nullptr ? *name : "");
      return;
    }
    ctx.Reply();
  });
  Register("List", [this](InvocationContext ctx) { HandleList(std::move(ctx)); });
  Register("Transfer",
           [this](InvocationContext ctx) { HandleTransfer(std::move(ctx)); });
  Register("Checkpoint", [this](InvocationContext ctx) {
    Checkpoint();
    ctx.Reply();
  });
}

void DirectoryEject::RegisterType(Kernel& kernel) {
  kernel.types().Register(
      kType, [](Kernel& k) { return std::make_unique<DirectoryEject>(k); });
}

Value DirectoryEject::SaveState() {
  Value entries;
  for (const auto& [name, uid] : entries_) {
    entries.Set(name, Value(uid));
  }
  return Value().Set("entries", std::move(entries));
}

void DirectoryEject::RestoreState(const Value& state) {
  entries_.clear();
  if (const ValueMap* entries = state.Field("entries").AsMap()) {
    for (const auto& [name, uid] : *entries) {
      if (auto u = uid.AsUid()) {
        entries_[name] = *u;
      }
    }
  }
}

bool DirectoryEject::AddEntryLocal(const std::string& name, Uid uid) {
  return entries_.emplace(name, uid).second;
}

std::optional<Uid> DirectoryEject::LookupLocal(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return std::nullopt;
  }
  return it->second;
}

void DirectoryEject::HandleList(InvocationContext ctx) {
  std::vector<std::string> lines;
  lines.reserve(entries_.size() + 1);
  for (const auto& [name, uid] : entries_) {
    lines.push_back(name + "\t" + uid.ToString());
  }
  lines.push_back("total " + std::to_string(entries_.size()));
  Uid session = kernel_.uids().Next();
  listings_[session] = std::move(lines);
  ctx.Reply(Value().Set(std::string(kFieldChannel), Value(session)));
}

void DirectoryEject::HandleTransfer(InvocationContext ctx) {
  ServeListing(listings_, ctx);
}

// ------------------------------------------------------ DirectoryConcatenator

DirectoryConcatenator::DirectoryConcatenator(Kernel& kernel,
                                             std::vector<Uid> directories)
    : Eject(kernel, kType), directories_(std::move(directories)) {
  RegisterTask("Lookup",
               [this](InvocationContext ctx) { return HandleLookup(std::move(ctx)); });
  RegisterTask("List",
               [this](InvocationContext ctx) { return HandleList(std::move(ctx)); });
  Register("Transfer",
           [this](InvocationContext ctx) { HandleTransfer(std::move(ctx)); });
}

Task<void> DirectoryConcatenator::HandleLookup(InvocationContext ctx) {
  // "yields the same result as would be obtained from performing the lookup
  // on all of the directories in turn until the name is found" (§2).
  Value args = ctx.args();
  for (const Uid& directory : directories_) {
    InvokeResult result = co_await Invoke(directory, "Lookup", args);
    if (result.ok()) {
      ctx.Reply(std::move(result.body));
      co_return;
    }
    if (!result.status.is(StatusCode::kNotFound)) {
      ctx.ReplyStatus(result.status);  // propagate crashes etc.
      co_return;
    }
  }
  ctx.ReplyError(StatusCode::kNotFound, ctx.Arg("name").StrOr(""));
}

Task<void> DirectoryConcatenator::HandleList(InvocationContext ctx) {
  // Streams each directory's own listing, concatenated.
  std::vector<std::string> lines;
  for (const Uid& directory : directories_) {
    InvokeResult opened = co_await Invoke(directory, "List", Value());
    if (!opened.ok()) {
      continue;  // a vanished directory simply contributes nothing
    }
    Value channel = opened.value().Field(kFieldChannel);
    StreamReader reader(*this, directory, channel, StreamReader::Options{8, 0});
    for (;;) {
      std::optional<Value> line = co_await reader.Next();
      if (!line) {
        break;
      }
      lines.push_back(line->StrOr(""));
    }
  }
  Uid session = kernel_.uids().Next();
  listings_[session] = std::move(lines);
  ctx.Reply(Value().Set(std::string(kFieldChannel), Value(session)));
}

void DirectoryConcatenator::HandleTransfer(InvocationContext ctx) {
  ServeListing(listings_, ctx);
}

}  // namespace eden
