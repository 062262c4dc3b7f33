#include "src/core/stream_reader.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace eden {

void StreamReader::ResumeAt(uint64_t seq) {
  buffer_.clear();
  next_seq_ = seq;
  ended_ = false;
  status_ = Status::Ok();
}

void StreamReader::Ingest(InvokeResult result) {
  if (!result.ok()) {
    // A failed source terminates the stream; the error is remembered so the
    // consumer can distinguish crash from clean end.
    status_ = std::move(result.status);
    ended_ = true;
    return;
  }
  BatchReply* batch = result.As<BatchReply>();
  if (batch == nullptr) {
    status_ = Status(StatusCode::kInvalidArgument, "Transfer reply is not a batch");
    ended_ = true;
    return;
  }
  size_t skip = 0;
  if (options_.sequenced) {
    // The reply names the position of its first item. A reply behind our
    // position carries a duplicate prefix (a rolled-back producer is
    // regenerating items we already have) — drop it. A reply *ahead* of our
    // position would mean the source lost items we never saw; that cannot
    // be repaired, so fail loudly rather than deliver a gapped stream.
    uint64_t reply_seq = batch->seq.value_or(next_seq_);
    if (reply_seq > next_seq_) {
      status_ = Status(StatusCode::kInternal,
                       "stream gap: source skipped past our position");
      ended_ = true;
      return;
    }
    skip = next_seq_ - reply_seq;
  }
  // The reply is ours: its items move into the buffer, uncopied.
  ValueList& items = batch->items;
  size_t dropped = std::min(skip, items.size());
  if (dropped > 0) {
    owner_.kernel().stats().redeliveries_dropped += dropped;
  }
  for (size_t i = dropped; i < items.size(); ++i) {
    buffer_.push_back(std::move(items[i]));
    next_seq_++;
  }
  // Fresh items only: the duplicate prefix was counted when it first
  // arrived, so the pull edge accounts exactly once per item.
  owner_.kernel().ObserveItems(ItemFlow::kPulled, owner_, items.size() - dropped, source_);
  if (batch->end) {
    ended_ = true;
    if (status_.ok()) {
      status_ = Status(StatusCode::kEndOfStream);
    }
  }
  owner_.kernel().ObserveQueueDepth(QueueComponent::kReader, owner_, buffer_.size());
}

Task<void> StreamReader::FetchOnce() {
  fetch_in_flight_ = true;
  RetryBudget retry(owner_.kernel().stats(), options_.retry);
  for (;;) {
    TransferArgs args{channel_, options_.batch};
    if (options_.sequenced) {
      args.seq = next_seq_;
      args.ack = ack();
    }
    InvokeResult result =
        co_await owner_.Invoke(source_, std::string(kOpTransfer), std::move(args),
                               options_.retry.deadline);
    if (std::optional<Tick> delay = retry.Next(result.status)) {
      if (*delay > 0) {
        co_await owner_.Sleep(*delay);
      }
      continue;
    }
    retry.Settle(result.status);
    fetch_in_flight_ = false;
    Ingest(std::move(result));
    if (fetch_done_.waiter_count() > 0) {
      fetch_done_.NotifyAll();
    }
    co_return;
  }
}

Task<void> StreamReader::FetchLoop() {
  assert(options_.lookahead > 0 && "fetch loop exists only in lookahead mode");
  while (!ended_) {
    while (buffer_.size() >= options_.lookahead && !ended_) {
      co_await room_.Wait();
    }
    if (ended_) {
      break;
    }
    co_await FetchOnce();
    available_.NotifyAll();
  }
  available_.NotifyAll();
}

Task<std::optional<Value>> StreamReader::Next() {
  if (options_.lookahead > 0) {
    if (!loop_started_) {
      loop_started_ = true;
      owner_.Spawn(FetchLoop());
    }
    while (buffer_.empty() && !ended_) {
      co_await available_.Wait();
    }
  } else {
    while (buffer_.empty() && !ended_) {
      if (fetch_in_flight_) {
        // Another consumer's Transfer is already outstanding; wait for its
        // reply rather than issuing a duplicate, which would double-consume
        // the source in unsequenced mode.
        co_await fetch_done_.Wait();
        continue;
      }
      co_await FetchOnce();
    }
  }
  if (buffer_.empty()) {
    co_return std::nullopt;
  }
  Value item = std::move(buffer_.front());
  buffer_.pop_front();
  owner_.kernel().ObserveItems(ItemFlow::kConsumed, owner_, 1);
  owner_.kernel().ObserveQueueDepth(QueueComponent::kReader, owner_, buffer_.size());
  if (options_.lookahead > 0) {
    // Only the lookahead fetch process ever waits on room_; in inline mode
    // there is no such process and nothing to wake.
    room_.Notify();
  }
  co_return std::optional<Value>(std::move(item));
}

}  // namespace eden
