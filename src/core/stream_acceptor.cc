#include "src/core/stream_acceptor.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace eden {

void StreamAcceptor::InstallOps() {
  owner_.RegisterOp(std::string(kOpPush),
                    [this](InvocationContext ctx) { HandlePush(std::move(ctx)); });
  // On an Eject that also embeds a StreamServer, the server's table answers.
  if (!owner_.Responds(std::string(kOpOpenChannel))) {
    table_.AnswerOpenChannel(owner_);
  }
}

PushAck StreamAcceptor::PushReply(const AcceptorChannel& channel) const {
  if (!channel.sequenced) {
    return PushAck{};
  }
  return PushAck{channel.explicit_durable ? channel.durable : channel.consumed,
                 channel.next_seq};
}

void StreamAcceptor::HandlePush(InvocationContext ctx) {
  PushArgs* args = ctx.RecordOrReject<PushArgs>();
  if (args == nullptr) {
    return;
  }
  std::optional<std::string> name = table_.Resolve(args->channel);
  if (!name) {
    ctx.ReplyError(StatusCode::kNoSuchChannel, "unknown channel identifier");
    return;
  }
  AcceptorChannel* ch = Find(*name);
  assert(ch != nullptr);
  ValueList& items = args->items;
  size_t count = items.size();
  Band band = ch->BandOf(args->band);
  size_t skip = 0;
  if (ch->sequenced && args->seq) {
    uint64_t s = *args->seq;
    if (s > ch->next_seq) {
      // Gap: a push we never saw carried positions [next_seq, s). Refuse —
      // ingesting would reorder the stream — and reply immediately so the
      // sender learns where to rewind to.
      ctx.Reply(PushReply(*ch));
      return;
    }
    // Duplicate prefix from a retrying sender: take only what is new.
    skip = std::min<size_t>(ch->next_seq - s, count);
    if (skip > 0) {
      owner_.kernel().stats().redeliveries_dropped += skip;
    }
  }
  for (size_t i = skip; i < count; ++i) {
    ch->Append(std::move(items[i]), band);
    ch->next_seq++;
    items_received_++;
  }
  owner_.kernel().ObserveItems(ItemFlow::kAccepted, owner_, count - skip, Uid(), BandIndex(band));
  if (ch->sequenced) {
    owner_.kernel().ObserveSequence(SeqCounter::kAcceptorNext, owner_, ch->next_seq);
  }
  ch->ReportDepth();
  if (args->end) {
    ch->ended = true;
  }
  // Deferred service: wake a blocked consumer once, at the next event, so a
  // burst of pushes coalesces into one wakeup.
  ch->WakeWaiters();
  if (ch->ended) {
    // Nothing more is coming; flow control is moot. Free any producer still
    // parked on an old push before answering this one.
    ReleaseWithheld(*ch);
  } else if (band == Band::kData &&
             (!ch->withheld.empty() || ch->Depth() >= ch->limits.hiwat)) {
    // Flow control: the buffer reached hiwat (or earlier producers are
    // already parked — joining behind them keeps releases FIFO). Withhold
    // the reply until the owner drains below lowat. Control pushes are
    // exempt: they must overtake data, not park behind it.
    ch->Report(FlowEvent::kHiwatHit);
    ch->withheld.push_back(ctx.TakeReply());
    return;
  }
  ctx.Reply(PushReply(*ch));
}

void StreamAcceptor::ReleaseWithheld(AcceptorChannel& channel) {
  // The lowat rule: a parked producer stays parked until the owner drains
  // the queue below the low watermark (hysteresis — one wakeup per drain
  // cycle, not per item). End of stream voids flow control entirely: the
  // queue can only shrink, so every producer is released immediately —
  // including when `ended` arrives while a final drain is still in flight.
  while (!channel.withheld.empty() &&
         (channel.ended || channel.Depth() < channel.limits.lowat)) {
    ReplyHandle reply = std::move(channel.withheld.front());
    channel.withheld.pop_front();
    reply.Reply(PushReply(channel));
  }
}

Task<std::optional<StreamAcceptor::Taken>> StreamAcceptor::Take(
    std::string_view channel, std::optional<Band> band) {
  AcceptorChannel* ch = Find(channel);
  assert(ch != nullptr && "read from undeclared input channel");
  // Sequenced channels are single-band: their control queue is always
  // empty, so a control-band loop simply idles until end of stream.
  while (!ch->Holds(band) && !ch->ended) {
    co_await ch->ready.Wait();
  }
  if (!ch->Holds(band)) {
    ReleaseWithheld(*ch);
    co_return std::nullopt;
  }
  owner_.kernel().CountLocalStep();
  Band from = band.value_or(ch->FrontBand());
  Taken taken{ch->Take(from), from};
  ch->consumed++;
  owner_.kernel().ObserveItems(ItemFlow::kConsumed, owner_, 1, Uid(), BandIndex(taken.band));
  ch->ReportDepth();
  ReleaseWithheld(*ch);
  co_return std::optional<Taken>(std::move(taken));
}

Task<std::optional<Value>> StreamAcceptor::Next(std::string_view channel) {
  std::optional<Taken> taken = co_await Take(channel);
  if (!taken) {
    co_return std::nullopt;
  }
  co_return std::optional<Value>(std::move(taken->item));
}

bool StreamAcceptor::CanPut(std::string_view channel, Band band) const {
  const AcceptorChannel* ch = Find(channel);
  if (ch == nullptr) {
    return false;
  }
  if (ch->BandOf(band) == Band::kControl) {
    return true;  // control is never subject to flow control
  }
  return ch->withheld.empty() && ch->Depth() < ch->limits.hiwat;
}

void StreamAcceptor::PutBack(std::string_view channel, Value item, Band band) {
  AcceptorChannel* ch = Find(channel);
  assert(ch != nullptr && "put-back to undeclared input channel");
  assert(ch->consumed > 0 && "put-back without a matching take");
  // The position is back in the queue: un-consume it so sequenced acks (and
  // the saved consumed mark) stay truthful.
  ch->consumed--;
  owner_.kernel().ObserveItems(ItemFlow::kPutBack, owner_, 1, Uid(), BandIndex(ch->BandOf(band)));
  ch->PutBack(std::move(item), band);
}

bool StreamAcceptor::ended(std::string_view channel) const {
  const AcceptorChannel* ch = Find(channel);
  return ch == nullptr || (ch->ended && !ch->Holds());
}

uint64_t StreamAcceptor::accepted(std::string_view channel) const {
  const AcceptorChannel* ch = Find(channel);
  return ch == nullptr ? 0 : ch->next_seq;
}

void StreamAcceptor::SetDurable(std::string_view channel, uint64_t pos) {
  AcceptorChannel* ch = Find(channel);
  assert(ch != nullptr && "SetDurable on undeclared input channel");
  ch->durable = pos;
  ch->explicit_durable = true;
}

void AcceptorChannel::Save(Value& state) const {
  state.Set("ended", Value(ended));
  state.Set("next", Value(next_seq));
  state.Set("consumed", Value(consumed));
  BandedChannel::Save(state);
}

void AcceptorChannel::Restore(const Value& state) {
  ended = state.Field("ended").BoolOr(false);
  next_seq = static_cast<uint64_t>(state.Field("next").IntOr(0));
  consumed = static_cast<uint64_t>(state.Field("consumed").IntOr(0));
  BandedChannel::Restore(state);
  if (sequenced) {
    // Everything the checkpoint accepted is, by definition, durable now.
    durable = next_seq;
    explicit_durable = true;
  }
}

}  // namespace eden
