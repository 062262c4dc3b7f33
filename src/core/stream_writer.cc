#include "src/core/stream_writer.h"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <string>
#include <utility>

namespace eden {

Task<Status> StreamWriter::Send(bool end) {
  if (options_.sequenced) {
    return SendSequenced(end);
  }
  return Push(std::exchange(pending_, {}), end, Band::kData);
}

Task<Status> StreamWriter::Push(ValueList items, bool end, Band band) {
  items_written_ += items.size();
  owner_.kernel().ObserveItems(ItemFlow::kProduced, owner_, items.size());
  owner_.kernel().ObserveItems(ItemFlow::kPushed, owner_, items.size(), sink_);
  RetryBudget retry(owner_.kernel().stats(), options_.retry);
  for (;;) {
    pushes_sent_++;
    // While a retry remains, `items` is copied so the retry resends the same
    // payload; the last attempt moves it.
    PushArgs args{channel_, retry.exhausted() ? std::move(items) : items, end, band};
    InvokeResult result = co_await owner_.Invoke(sink_, std::string(kOpPush),
                                                 std::move(args), options_.retry.deadline);
    if (std::optional<Tick> delay = retry.Next(result.status)) {
      if (*delay > 0) {
        co_await owner_.Sleep(*delay);
      }
      continue;
    }
    retry.Settle(result.status);
    status_ = std::move(result.status);
    co_return status_;
  }
}

Task<Status> StreamWriter::SendSequenced(bool end) {
  RetryBudget retry(owner_.kernel().stats(), options_.retry);
  for (;;) {
    uint64_t first = cursor_;
    uint64_t total = replay_base_ + replay_.size();
    ValueList items(replay_.begin() + static_cast<ptrdiff_t>(first - replay_base_),
                    replay_.end());
    size_t count = items.size();
    pushes_sent_++;
    // Only positions beyond the transmission high-water mark are fresh; a
    // rewound resend after a lost push retransmits already-counted items.
    const uint64_t high = std::max(sent_high_, first + count);
    owner_.kernel().ObserveItems(ItemFlow::kPushed, owner_, high - sent_high_, sink_);
    sent_high_ = high;
    PushArgs args{channel_, std::move(items), end};
    args.seq = first;
    InvokeResult result = co_await owner_.Invoke(sink_, std::string(kOpPush),
                                                 std::move(args), options_.retry.deadline);
    if (std::optional<Tick> delay = retry.Next(result.status)) {
      if (*delay > 0) {
        co_await owner_.Sleep(*delay);
      }
      continue;  // resend the same window
    }
    if (!result.ok()) {
      status_ = std::move(result.status);
      co_return status_;
    }
    retry.Settle(result.status);
    const PushAck* reply = result.As<PushAck>();
    if (reply == nullptr) {
      status_ = Status(StatusCode::kInvalidArgument, "Push reply is not an ack");
      co_return status_;
    }
    uint64_t next = reply->next.value_or(first + count);
    uint64_t ack = reply->ack.value_or(replay_base_);
    if (next < replay_base_) {
      // The receiver wants items we have already discarded as durable —
      // its state regressed below its own advertised ack. Unrecoverable.
      status_ = Status(StatusCode::kInternal,
                       "receiver rewound below the acknowledged position");
      co_return status_;
    }
    // Positions the receiver checkpointed can never be re-requested.
    while (replay_base_ < ack && !replay_.empty()) {
      replay_.pop_front();
      replay_base_++;
    }
    owner_.kernel().ObserveSequence(SeqCounter::kWriterAck, owner_, replay_base_);
    if (cursor_ < next) {
      cursor_ = std::min(next, total);
    }
    if (next >= first + count) {
      status_ = std::move(result.status);
      co_return status_;  // everything we sent was accepted (or already held)
    }
    // Gap: an earlier push was lost and the receiver refused this one.
    // Rewind to the first position it is missing and resend.
    cursor_ = next;
    owner_.kernel().stats().retries++;
  }
}

Task<Status> StreamWriter::Write(Value item) {
  if (ended_ || !status_.ok_or_end()) {
    co_return status_.ok_or_end() ? Status(StatusCode::kEndOfStream) : status_;
  }
  if (options_.sequenced) {
    replay_.push_back(std::move(item));
    items_written_++;
    owner_.kernel().ObserveItems(ItemFlow::kProduced, owner_, 1);
    uint64_t unsent = replay_base_ + replay_.size() - cursor_;
    if (static_cast<int64_t>(unsent) >= options_.batch) {
      co_return co_await Send(/*end=*/false);
    }
    co_return Status::Ok();
  }
  pending_.push_back(std::move(item));
  if (static_cast<int64_t>(pending_.size()) >= options_.batch) {
    co_return co_await Send(/*end=*/false);
  }
  co_return Status::Ok();
}

Task<Status> StreamWriter::WriteControl(Value item) {
  if (options_.sequenced || ended_ || !status_.ok_or_end()) {
    // Write refuses items after End or a failure, and a sequenced channel
    // carries control as data.
    return Write(std::move(item));
  }
  ValueList items;
  items.push_back(std::move(item));
  return Push(std::move(items), /*end=*/false, Band::kControl);
}

Task<Status> StreamWriter::End() {
  if (ended_) {
    co_return status_;
  }
  ended_ = true;
  co_return co_await Send(/*end=*/true);
}

Value StreamWriter::SaveState() const {
  Value state;
  state.Set("base", Value(replay_base_));
  state.Set("items", Value(ValueList(replay_.begin(), replay_.end())));
  state.Set("ended", Value(ended_));
  return state;
}

void StreamWriter::RestoreState(const Value& state) {
  replay_base_ = static_cast<uint64_t>(state.Field("base").IntOr(0));
  replay_.clear();
  if (const ValueList* items = state.Field("items").AsList()) {
    replay_.assign(items->begin(), items->end());
  }
  ended_ = state.Field("ended").BoolOr(false);
  // Resend the whole unacknowledged window; the receiver deduplicates.
  cursor_ = replay_base_;
  // A restored writer retransmits its window: assume the lost incarnation
  // already transmitted it so the monitor does not double count (crash runs
  // are outside the exact-balance guarantee either way; see monitor.h).
  sent_high_ = replay_base_ + replay_.size();
  status_ = Status::Ok();
}

}  // namespace eden
