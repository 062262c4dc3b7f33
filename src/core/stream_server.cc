#include "src/core/stream_server.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace eden {

void StreamServer::InstallOps() {
  owner_.RegisterOp(std::string(kOpTransfer),
                    [this](InvocationContext ctx) { HandleTransfer(std::move(ctx)); });
  table_.AnswerOpenChannel(owner_);
}

bool StreamServer::WriteBlocked(ServerChannel& channel) {
  // hiwat 0 is pure §4 laziness: the producer proceeds only on parked
  // demand (checked by the caller) or once the channel closes.
  if (channel.limits.hiwat == 0) {
    return true;
  }
  size_t depth = channel.Depth();
  if (depth >= channel.limits.hiwat) {
    if (!channel.flow_blocked) {
      channel.flow_blocked = true;
      channel.Report(FlowEvent::kHiwatHit);
    }
    return true;
  }
  if (channel.flow_blocked && depth >= channel.limits.lowat) {
    return true;  // hysteresis: stay blocked until drained below lowat
  }
  channel.flow_blocked = false;
  return false;
}

Task<void> StreamServer::Write(std::string_view channel, Value item, Band band) {
  ServerChannel* ch = Find(channel);
  assert(ch != nullptr && "write to undeclared channel");
  if (ch->BandOf(band) == Band::kData) {
    // The producer may run ahead of demand by at most `hiwat` items; with
    // hiwat 0 it proceeds only when a consumer is already waiting. Once
    // blocked at hiwat it stays blocked until the buffer drains below
    // lowat. Control writes skip this entirely: they must overtake data.
    while (!ch->closed && ch->parked.empty() && WriteBlocked(*ch)) {
      co_await ch->ready.Wait();
    }
  }
  if (ch->closed) {
    co_return;  // late writes after Close are dropped
  }
  if (!ch->parked.empty()) {
    // Proceeding because a consumer's Transfer is already parked: from here
    // on this continuation is serving that demand, so the producer's next
    // sends (its own upstream pull included) join the demand's causal span.
    owner_.kernel().AdoptSpan(ch->parked.front().reply.id());
  }
  owner_.kernel().CountLocalStep();
  ch->Append(std::move(item), band);
  owner_.kernel().ObserveItems(ItemFlow::kProduced, owner_, 1);
  ch->ReportDepth();
  Pump(*ch);
}

bool StreamServer::CanPut(std::string_view channel, Band band) const {
  const ServerChannel* ch = Find(channel);
  if (ch == nullptr || ch->closed) {
    return false;
  }
  if (ch->BandOf(band) == Band::kControl) {
    return true;  // control is never subject to flow control
  }
  if (!ch->parked.empty()) {
    return true;  // parked demand admits a write regardless of depth
  }
  if (ch->limits.hiwat == 0) {
    return false;  // pure laziness: no demand, no admission
  }
  size_t depth = ch->Depth();
  if (depth >= ch->limits.hiwat) {
    return false;
  }
  return !(ch->flow_blocked && depth >= ch->limits.lowat);
}

void StreamServer::PutBack(std::string_view channel, Value item, Band band) {
  ServerChannel* ch = Find(channel);
  assert(ch != nullptr && "put-back to undeclared channel");
  // The item enters the production buffer for the first time (the owner
  // cannot take items back out of a server buffer), so it counts as
  // produced — conservation must see it before Pump serves it.
  owner_.kernel().ObserveItems(ItemFlow::kProduced, owner_, 1);
  ch->PutBack(std::move(item), band);
  if (!ch->parked.empty()) {
    Pump(*ch);  // a parked Transfer must not wait for the next Write
  }
}

void StreamServer::Close(std::string_view channel) {
  ServerChannel* ch = Find(channel);
  assert(ch != nullptr && "close of undeclared channel");
  if (ch->closed) {
    return;
  }
  ch->closed = true;
  Pump(*ch);
  ch->ready.NotifyAll();
}

void StreamServer::CloseAll() {
  for (auto& [name, channel] : channels_) {
    if (!channel.closed) {
      channel.closed = true;
      Pump(channel);
      channel.ready.NotifyAll();
    }
  }
}

void StreamServer::AbortAll(Status status) {
  for (auto& [name, channel] : channels_) {
    channel.closed = true;
    if (channel.abort_status.ok()) {
      channel.abort_status = status;
    }
    channel.Clear();
    Pump(channel);
    channel.ready.NotifyAll();
  }
}

void StreamServer::Pump(ServerChannel& channel) {
  while (!channel.parked.empty()) {
    if (channel.abort_status.ok()) {
      // A request for an already-served position can be answered from the
      // replay window even with an empty buffer.
      const Parked& front = channel.parked.front();
      bool replayable = channel.sequenced && front.seq >= 0 &&
                        static_cast<uint64_t>(front.seq) < channel.next_seq;
      if (!channel.Holds() && !channel.closed && !replayable) {
        break;  // nothing to serve yet; keep the vacuum
      }
    }
    Parked request = std::move(channel.parked.front());
    channel.parked.pop_front();
    if (!channel.abort_status.ok()) {
      transfers_aborted_++;
      request.reply.ReplyStatus(channel.abort_status);
      continue;
    }
    // Where this reply starts. Classic requests take the next fresh item; a
    // sequenced request names its position. Requests *ahead* of production
    // happen when a restored producer rolled back and is regenerating items
    // the consumer already has — serve from next_seq and let the consumer
    // discard the duplicate prefix.
    uint64_t pos = channel.next_seq;
    if (channel.sequenced && request.seq >= 0) {
      uint64_t want = static_cast<uint64_t>(request.seq);
      if (want < channel.replay_base) {
        transfers_served_++;
        request.reply.ReplyError(
            StatusCode::kInternal,
            "requested position already discarded from the replay window");
        continue;
      }
      pos = std::min(want, channel.next_seq);
    }
    uint64_t first = pos;
    ValueList items;
    size_t fresh = 0;
    bool redelivered = false;
    int64_t take = std::max<int64_t>(request.max, 1);
    while (take-- > 0) {
      if (channel.Holds(Band::kControl)) {
        // Control overtakes: queued control items lead every batch, ahead
        // of replay and data. (Sequenced channels never queue control.)
        items.push_back(channel.Take(Band::kControl));
        fresh++;
      } else if (pos < channel.next_seq) {
        items.push_back(channel.replay[pos - channel.replay_base]);
        redelivered = true;
        pos++;
      } else if (channel.Holds(Band::kData)) {
        Value item = channel.Take(Band::kData);
        if (channel.sequenced) {
          channel.replay.push_back(item);
        }
        items.push_back(std::move(item));
        channel.next_seq++;
        fresh++;
        pos++;
      } else {
        break;
      }
    }
    bool end = channel.closed && !channel.Holds() && pos >= channel.next_seq;
    items_delivered_ += fresh;
    transfers_served_++;
    // Fresh items only: replayed positions were counted when first served.
    owner_.kernel().ObserveItems(ItemFlow::kServed, owner_, fresh);
    if (channel.sequenced) {
      owner_.kernel().ObserveSequence(SeqCounter::kServerNext, owner_, channel.next_seq);
    }
    if (redelivered) {
      owner_.kernel().stats().redeliveries++;
    }
    BatchReply reply{std::move(items), end};
    if (channel.sequenced) {
      reply.seq = first;
    }
    request.reply.Reply(std::move(reply));
  }
  channel.ReportDepth();
  // Back-enable the producer under the lowat rule: closed channels and
  // parked demand always release; a watermarked channel releases only once
  // drained below lowat (clearing the hysteresis latch). Deferred service
  // coalesces the wakeup to drain time.
  bool drained = channel.limits.hiwat != 0 && channel.Depth() < channel.limits.lowat;
  if (drained) {
    channel.flow_blocked = false;
  }
  if (channel.closed || drained || !channel.parked.empty()) {
    channel.WakeWaiters();
  }
}

void StreamServer::HandleTransfer(InvocationContext ctx) {
  if (!demand_seen_) {
    demand_seen_ = true;
    if (on_first_demand_) {
      on_first_demand_();
    }
  }
  const TransferArgs* args = ctx.RecordOrReject<TransferArgs>();
  if (args == nullptr) {
    return;
  }
  std::optional<std::string> name = table_.Resolve(args->channel);
  if (!name) {
    ctx.ReplyError(StatusCode::kNoSuchChannel, "unknown channel identifier");
    return;
  }
  ServerChannel* ch = Find(*name);
  assert(ch != nullptr);
  if (ch->sequenced && args->ack) {
    // Positions below the caller's durable mark can never be re-requested.
    uint64_t ack = *args->ack;
    while (ch->replay_base < ack && !ch->replay.empty()) {
      ch->replay.pop_front();
      ch->replay_base++;
    }
    owner_.kernel().ObserveSequence(SeqCounter::kServerAck, owner_, ch->replay_base);
  }
  Parked parked;
  parked.max = args->max;
  parked.seq = args->seq ? static_cast<int64_t>(*args->seq) : -1;
  parked.reply = ctx.TakeReply();
  ch->parked.push_back(std::move(parked));
  Pump(*ch);
}

size_t StreamServer::parked_requests(std::string_view channel) const {
  const ServerChannel* ch = Find(channel);
  return ch == nullptr ? 0 : ch->parked.size();
}

bool StreamServer::closed(std::string_view channel) const {
  const ServerChannel* ch = Find(channel);
  return ch == nullptr || ch->closed;
}

uint64_t StreamServer::acked(std::string_view channel) const {
  const ServerChannel* ch = Find(channel);
  return ch == nullptr ? 0 : ch->replay_base;
}

void ServerChannel::Save(Value& state) const {
  state.Set("closed", Value(closed));
  state.Set("next", Value(next_seq));
  state.Set("base", Value(replay_base));
  state.Set("replay", Value(ValueList(replay.begin(), replay.end())));
  BandedChannel::Save(state);
}

void ServerChannel::Restore(const Value& state) {
  closed = state.Field("closed").BoolOr(false);
  next_seq = static_cast<uint64_t>(state.Field("next").IntOr(0));
  replay_base = static_cast<uint64_t>(state.Field("base").IntOr(0));
  replay.clear();
  flow_blocked = false;
  if (const ValueList* saved = state.Field("replay").AsList()) {
    replay.assign(saved->begin(), saved->end());
  }
  BandedChannel::Restore(state);
}

}  // namespace eden
