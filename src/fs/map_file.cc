#include "src/fs/map_file.h"

#include <memory>
#include <utility>

namespace eden {

MapFileEject::MapFileEject(Kernel& kernel, ValueList initial)
    : Eject(kernel, kType), records_(std::move(initial)) {
  Register("ReadAt", [this](InvocationContext ctx) { HandleReadAt(std::move(ctx)); });
  Register("WriteAt",
           [this](InvocationContext ctx) { HandleWriteAt(std::move(ctx)); });
  Register("Length", [this](InvocationContext ctx) {
    ctx.Reply(Value().Set("length", Value(static_cast<int64_t>(records_.size()))));
  });
  Register("Truncate", [this](InvocationContext ctx) {
    auto length = ctx.Arg("length").AsInt();
    if (!length || *length < 0) {
      ctx.ReplyError(StatusCode::kInvalidArgument, "Truncate needs length >= 0");
      return;
    }
    records_.resize(static_cast<size_t>(*length));
    shared_cursor_ = std::min(shared_cursor_, records_.size());
    ctx.Reply();
  });
  Register("Checkpoint", [this](InvocationContext ctx) {
    Checkpoint();
    ctx.Reply();
  });
  // The Sequence protocol, stacked on top (§6: "it may support both").
  Register("Transfer",
           [this](InvocationContext ctx) { HandleTransfer(std::move(ctx)); });
  Register("Open", [this](InvocationContext ctx) {
    Uid session = kernel_.uids().Next();
    sessions_[session] = 0;
    ctx.Reply(Value().Set(std::string(kFieldChannel), Value(session)));
  });
  Register("Close", [this](InvocationContext ctx) {
    auto uid = ctx.Arg(kFieldChannel).AsUid();
    if (!uid || sessions_.erase(*uid) == 0) {
      ctx.ReplyError(StatusCode::kNoSuchChannel, "unknown session");
      return;
    }
    ctx.Reply();
  });
}

void MapFileEject::RegisterType(Kernel& kernel) {
  kernel.types().Register(kType,
                          [](Kernel& k) { return std::make_unique<MapFileEject>(k); });
}

Value MapFileEject::SaveState() {
  return Value().Set("records", Value(ValueList(records_)));
}

void MapFileEject::RestoreState(const Value& state) {
  records_.clear();
  if (const ValueList* records = state.Field("records").AsList()) {
    records_ = *records;
  }
}

void MapFileEject::HandleReadAt(InvocationContext ctx) {
  auto index = ctx.Arg("index").AsInt();
  if (!index || *index < 0 || static_cast<size_t>(*index) >= records_.size()) {
    ctx.ReplyError(StatusCode::kNotFound, "index out of range");
    return;
  }
  ctx.Reply(Value().Set("item", records_[static_cast<size_t>(*index)]));
}

void MapFileEject::HandleWriteAt(InvocationContext ctx) {
  auto index = ctx.Arg("index").AsInt();
  if (!index || *index < 0) {
    ctx.ReplyError(StatusCode::kInvalidArgument, "WriteAt needs index >= 0");
    return;
  }
  if (static_cast<size_t>(*index) >= records_.size()) {
    records_.resize(static_cast<size_t>(*index) + 1);
  }
  records_[static_cast<size_t>(*index)] = ctx.Arg("item");
  ctx.Reply();
}

void MapFileEject::HandleTransfer(InvocationContext ctx) {
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
      ctx.ReplyError(StatusCode::kNoSuchChannel, "unknown session");
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
  while (max-- > 0 && *cursor < records_.size()) {
    items.push_back(records_[(*cursor)++]);
  }
  bool end = *cursor >= records_.size();
  if (end) {
    if (is_session) {
      sessions_.erase(*wire.AsUid());
    } else {
      shared_cursor_ = 0;
    }
  }
  ctx.Reply(BatchReply{std::move(items), end});
}

}  // namespace eden
