#include "src/fs/file.h"

#include <memory>
#include <utility>

#include "src/core/framing.h"
#include "src/core/stream_reader.h"

namespace eden {

FileEject::FileEject(Kernel& kernel, std::string initial_text)
    : Eject(kernel, kType) {
  for (const Value& line : SplitLines(initial_text)) {
    lines_.push_back(*line.AsStr());
  }
  Register("Transfer", [this](InvocationContext ctx) { HandleTransfer(std::move(ctx)); });
  Register("Open", [this](InvocationContext ctx) { HandleOpen(std::move(ctx)); });
  Register("Close", [this](InvocationContext ctx) { HandleClose(std::move(ctx)); });
  Register("Write", [this](InvocationContext ctx) { HandleWrite(std::move(ctx)); });
  Register("Truncate", [this](InvocationContext ctx) {
    lines_.clear();
    sessions_.clear();
    shared_cursor_ = 0;
    ctx.Reply();
  });
  Register("Size", [this](InvocationContext ctx) {
    int64_t chars = 0;
    for (const std::string& line : lines_) {
      chars += static_cast<int64_t>(line.size()) + 1;
    }
    Value reply;
    reply.Set("lines", Value(static_cast<int64_t>(lines_.size())));
    reply.Set("chars", Value(chars));
    ctx.Reply(std::move(reply));
  });
  Register("Checkpoint", [this](InvocationContext ctx) {
    Checkpoint();
    ctx.Reply();
  });
  RegisterTask("Absorb",
               [this](InvocationContext ctx) { return HandleAbsorb(std::move(ctx)); });
}

void FileEject::RegisterType(Kernel& kernel) {
  kernel.types().Register(kType,
                          [](Kernel& k) { return std::make_unique<FileEject>(k); });
}

Value FileEject::SaveState() {
  ValueList lines;
  lines.reserve(lines_.size());
  for (const std::string& line : lines_) {
    lines.push_back(Value(line));
  }
  return Value().Set("lines", Value(std::move(lines)));
}

void FileEject::RestoreState(const Value& state) {
  lines_.clear();
  if (const ValueList* lines = state.Field("lines").AsList()) {
    for (const Value& line : *lines) {
      lines_.push_back(line.StrOr(""));
    }
  }
}

std::string FileEject::ContentsAsText() const {
  ValueList lines;
  lines.reserve(lines_.size());
  for (const std::string& line : lines_) {
    lines.push_back(Value(line));
  }
  return JoinLines(lines);
}

void FileEject::HandleTransfer(InvocationContext ctx) {
  const TransferArgs* args = ctx.RecordOrReject<TransferArgs>();
  if (args == nullptr) {
    return;
  }
  const Value& wire = args->channel;
  size_t* cursor = nullptr;
  bool is_session = false;
  if (auto uid = wire.AsUid()) {
    auto it = sessions_.find(*uid);
    if (it == sessions_.end()) {
      ctx.ReplyError(StatusCode::kNoSuchChannel, "unknown read session");
      return;
    }
    cursor = &it->second;
    is_session = true;
  } else if (wire.StrOr("") == kChanOut || wire.IntOr(-1) == 0 || wire.is_nil()) {
    cursor = &shared_cursor_;
  } else {
    ctx.ReplyError(StatusCode::kNoSuchChannel, "unknown channel identifier");
    return;
  }

  int64_t max = std::max<int64_t>(args->max, 1);
  ValueList items;
  while (max-- > 0 && *cursor < lines_.size()) {
    items.push_back(Value(lines_[(*cursor)++]));
  }
  bool end = *cursor >= lines_.size();
  if (end) {
    if (is_session) {
      sessions_.erase(*wire.AsUid());
    } else {
      shared_cursor_ = 0;  // the shared channel rewinds for the next reader
    }
  }
  ctx.Reply(BatchReply{std::move(items), end});
}

void FileEject::HandleOpen(InvocationContext ctx) {
  Uid session = kernel_.uids().Next();
  sessions_[session] = 0;
  Value reply;
  reply.Set(std::string(kFieldChannel), Value(session));
  ctx.Reply(std::move(reply));
}

void FileEject::HandleClose(InvocationContext ctx) {
  auto uid = ctx.Arg(kFieldChannel).AsUid();
  if (!uid || sessions_.erase(*uid) == 0) {
    ctx.ReplyError(StatusCode::kNoSuchChannel, "unknown read session");
    return;
  }
  ctx.Reply();
}

void FileEject::HandleWrite(InvocationContext ctx) {
  const ValueList* items = ctx.Arg(kFieldItems).AsList();
  if (items == nullptr) {
    ctx.ReplyError(StatusCode::kInvalidArgument, "Write needs items");
    return;
  }
  for (const Value& item : *items) {
    lines_.push_back(item.StrOr(""));
  }
  ctx.Reply(Value().Set("count", Value(static_cast<int64_t>(items->size()))));
}

Task<void> FileEject::HandleAbsorb(InvocationContext ctx) {
  auto source = ctx.Arg("source").AsUid();
  if (!source) {
    ctx.ReplyError(StatusCode::kInvalidArgument, "Absorb needs a source uid");
    co_return;
  }
  Value channel = ctx.Arg(kFieldChannel);
  if (channel.is_nil()) {
    channel = Value(std::string(kChanOut));
  }
  StreamReader reader(*this, *source, channel);
  int64_t count = 0;
  for (;;) {
    std::optional<Value> item = co_await reader.Next();
    if (!item) {
      break;
    }
    lines_.push_back(item->StrOr(""));
    count++;
  }
  if (!reader.status().ok_or_end()) {
    ctx.ReplyStatus(reader.status(),
                    Value().Set("count", Value(count)));
    co_return;
  }
  // "Once a file has been written, the data is committed to stable storage
  // by Checkpointing." (§2)
  Checkpoint();
  ctx.Reply(Value().Set("count", Value(count)));
}

}  // namespace eden
