#include "src/core/channel.h"

#include <utility>

#include "src/eden/kernel.h"

namespace eden {

bool ChannelTable::Declare(std::string name, bool capability_only) {
  if (Contains(name)) {
    return false;
  }
  capability_only_[name] = capability_only;
  names_.push_back(std::move(name));
  return true;
}

bool ChannelTable::Contains(std::string_view name) const {
  return capability_only_.find(name) != capability_only_.end();
}

bool ChannelTable::IsCapabilityOnly(std::string_view name) const {
  auto it = capability_only_.find(name);
  return it != capability_only_.end() && it->second;
}

std::optional<Uid> ChannelTable::MintCapability(const std::string& name,
                                                Kernel& kernel) {
  if (!Contains(name)) {
    return std::nullopt;
  }
  Uid cap = kernel.uids().Next();
  capabilities_[cap] = name;
  return cap;
}

std::optional<std::string> ChannelTable::Resolve(const Value& wire_id) const {
  if (auto uid = wire_id.AsUid()) {
    auto it = capabilities_.find(*uid);
    if (it == capabilities_.end()) {
      return std::nullopt;  // forged or stale capability
    }
    return it->second;
  }
  if (auto index = wire_id.AsInt()) {
    if (*index < 0 || static_cast<size_t>(*index) >= names_.size()) {
      return std::nullopt;
    }
    const std::string& name = names_[static_cast<size_t>(*index)];
    if (IsCapabilityOnly(name)) {
      return std::nullopt;
    }
    return name;
  }
  if (const std::string* name = wire_id.AsStr()) {
    if (!Contains(*name) || IsCapabilityOnly(*name)) {
      return std::nullopt;
    }
    return *name;
  }
  return std::nullopt;
}

void ChannelTable::AnswerOpenChannel(Eject& owner) {
  owner.RegisterOp(std::string(kOpOpenChannel),
                   [this, &owner](InvocationContext ctx) {
                     HandleOpenChannel(std::move(ctx), owner.kernel());
                   });
}

void ChannelTable::HandleOpenChannel(InvocationContext ctx, Kernel& kernel) {
  if (locked_) {
    ctx.ReplyError(StatusCode::kPermissionDenied, "channel table is locked");
    return;
  }
  const std::string* name = ctx.Arg(kFieldName).AsStr();
  if (name == nullptr || !Contains(*name)) {
    ctx.ReplyError(StatusCode::kNoSuchChannel, "unknown channel name");
    return;
  }
  std::optional<Uid> capability = MintCapability(*name, kernel);
  Value reply;
  reply.Set(std::string(kFieldChannel), Value(*capability));
  ctx.Reply(std::move(reply));
}

BandedChannel::~BandedChannel() = default;

Value BandedChannel::Take(Band band) {
  if (band == Band::kControl && !data_.empty()) {
    Report(FlowEvent::kBandOvertake);
  }
  Ring<Value>& queue = Queue(band);
  Value item = std::move(queue.front());
  queue.pop_front();
  return item;
}

void BandedChannel::PutBack(Value item, Band band) {
  Queue(BandOf(band)).push_front(std::move(item));
  Report(FlowEvent::kPutBack);
  ReportDepth();
}

void BandedChannel::ReportDepth() const {
  owner_.kernel().ObserveQueueDepth(component_, owner_, Depth());
}

void BandedChannel::Report(FlowEvent event) const {
  owner_.kernel().ObserveFlowEvent(component_, owner_, event);
}

void BandedChannel::Save(Value& state) const {
  state.Set("buffer", Value(ValueList(data_.begin(), data_.end())));
  if (!control_.empty()) {
    state.Set("control", Value(ValueList(control_.begin(), control_.end())));
  }
}

void BandedChannel::Restore(const Value& state) {
  Clear();
  if (const ValueList* buffer = state.Field("buffer").AsList()) {
    data_.assign(buffer->begin(), buffer->end());
  }
  if (const ValueList* control = state.Field("control").AsList()) {
    control_.assign(control->begin(), control->end());
  }
}

}  // namespace eden
