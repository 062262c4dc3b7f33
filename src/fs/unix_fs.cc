#include "src/fs/unix_fs.h"

#include <utility>

#include "src/core/framing.h"

namespace eden {

std::optional<std::string> HostFs::Get(const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) {
    return std::nullopt;
  }
  return it->second;
}

// ------------------------------------------------------------- UnixFileSource

UnixFileSource::UnixFileSource(Kernel& kernel, std::string text)
    : Eject(kernel, kType) {
  for (const Value& line : SplitLines(text)) {
    lines_.push_back(*line.AsStr());
  }
  Register("Transfer",
           [this](InvocationContext ctx) { HandleTransfer(std::move(ctx)); });
  Register("Close", [this](InvocationContext ctx) {
    ctx.Reply();
    RequestDeactivate();
  });
}

void UnixFileSource::HandleTransfer(InvocationContext ctx) {
  const TransferArgs* args = ctx.RecordOrReject<TransferArgs>();
  if (args == nullptr) {
    return;
  }
  int64_t max = std::max<int64_t>(args->max, 1);
  ValueList items;
  while (max-- > 0 && cursor_ < lines_.size()) {
    items.push_back(Value(lines_[cursor_++]));
  }
  bool end = cursor_ >= lines_.size();
  ctx.Reply(BatchReply{std::move(items), end});
  if (end) {
    // "the UnixFile Eject deactivates itself and, since it has never
    // Checkpointed, disappears." (§7)
    RequestDeactivate();
  }
}

// --------------------------------------------------------------- UnixFileSink

UnixFileSink::UnixFileSink(Kernel& kernel, HostFs& host, std::string path,
                           Uid source, Value channel)
    : Eject(kernel, kType),
      host_(host),
      path_(std::move(path)),
      reader_(*this, source, std::move(channel)) {}

void UnixFileSink::OnStart() { Spawn(Record()); }

Task<void> UnixFileSink::Record() {
  ValueList lines;
  for (;;) {
    std::optional<Value> item = co_await reader_.Next();
    if (!item) {
      break;
    }
    lines.push_back(std::move(*item));
  }
  if (reader_.status().ok_or_end()) {
    host_.Put(path_, JoinLines(lines));
  }
  RequestDeactivate();
}

// --------------------------------------------------------- UnixFileSystemEject

UnixFileSystemEject::UnixFileSystemEject(Kernel& kernel, HostFs& host)
    : Eject(kernel, kType), host_(host) {
  Register("NewStream",
           [this](InvocationContext ctx) { HandleNewStream(std::move(ctx)); });
  Register("UseStream",
           [this](InvocationContext ctx) { HandleUseStream(std::move(ctx)); });
  Register("Exists", [this](InvocationContext ctx) {
    const std::string* path = ctx.Arg("path").AsStr();
    ctx.Reply(Value(path != nullptr && host_.Exists(*path)));
  });
}

void UnixFileSystemEject::HandleNewStream(InvocationContext ctx) {
  const std::string* path = ctx.Arg("path").AsStr();
  if (path == nullptr) {
    ctx.ReplyError(StatusCode::kInvalidArgument, "NewStream needs a path");
    return;
  }
  std::optional<std::string> text = host_.Get(*path);
  if (!text) {
    ctx.ReplyError(StatusCode::kNotFound, *path);
    return;
  }
  UnixFileSource& stream =
      kernel_.Create<UnixFileSource>(node(), std::move(*text));
  ctx.Reply(Value().Set("stream", Value(stream.uid())));
}

void UnixFileSystemEject::HandleUseStream(InvocationContext ctx) {
  const std::string* path = ctx.Arg("path").AsStr();
  auto source = ctx.Arg("source").AsUid();
  if (path == nullptr || !source) {
    ctx.ReplyError(StatusCode::kInvalidArgument, "UseStream needs path and source");
    return;
  }
  Value channel = ctx.Arg(kFieldChannel);
  if (channel.is_nil()) {
    channel = Value(std::string(kChanOut));
  }
  UnixFileSink& sink = kernel_.Create<UnixFileSink>(node(), host_, *path, *source,
                                                    std::move(channel));
  ctx.Reply(Value().Set("file", Value(sink.uid())));
}

}  // namespace eden
