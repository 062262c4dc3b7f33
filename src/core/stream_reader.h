// StreamReader: the *active input* half of the read-only discipline.
//
// A buffered reader over Transfer invocations. The filter process written
// "in the conventional way" (paper §4) just calls Next(); the reader issues
// Transfer invocations with the configured batch size, and — when lookahead
// is enabled — runs a dedicated fetch process so that communication overlaps
// the owner's computation ("each Eject does a certain amount of computation
// in advance", §4).
#ifndef SRC_CORE_STREAM_READER_H_
#define SRC_CORE_STREAM_READER_H_

#include <memory>
#include <optional>

#include "src/core/stream.h"
#include "src/eden/eject.h"
#include "src/eden/ring.h"
#include "src/eden/sync.h"

namespace eden {

struct StreamReaderOptions {
  // Items requested per Transfer invocation.
  int64_t batch = 1;
  // If > 0, a fetch process keeps up to this many items buffered ahead of
  // the consumer. 0 = fetch inline, one Transfer at a time.
  size_t lookahead = 0;
  // ---- Fault tolerance.
  // Deadline and retries of each Transfer. Re-invoking a
  // crashed-but-checkpointed source reactivates it.
  RetryPolicy retry{};
  // Send seq/ack positions with every Transfer and deduplicate redelivered
  // items (requires a sequenced channel at the source).
  bool sequenced = false;
};

class StreamReader {
 public:
  using Options = StreamReaderOptions;

  StreamReader(Eject& owner, Uid source, Value channel, Options options = {})
      : owner_(owner),
        source_(source),
        channel_(std::move(channel)),
        options_(options),
        available_(owner),
        room_(owner),
        fetch_done_(owner) {}
  StreamReader(const StreamReader&) = delete;
  StreamReader& operator=(const StreamReader&) = delete;

  // Next item, or nullopt at end-of-stream (check status() to distinguish a
  // clean end from a failed source).
  Task<std::optional<Value>> Next();

  bool ended() const { return ended_ && buffer_.empty(); }
  // kOk while streaming; kEndOfStream after a clean end; an error code if
  // the source failed (crashed, forged channel, ...).
  const Status& status() const { return status_; }

  // ---- Recovery support (sequenced mode).
  // Position of the next item the consumer has not yet taken.
  uint64_t consumed() const { return next_seq_ - buffer_.size(); }
  // Marks positions below `pos` as durable at the consumer: they are
  // acknowledged to the source, which may discard them from its replay
  // window. Call after checkpointing. Until the first call, the reader
  // acknowledges whatever it has consumed (right for consumers that never
  // restart, wrong for ones that do).
  void set_durable(uint64_t pos) {
    durable_ = pos;
    explicit_durable_ = true;
  }
  // Restart the stream from position `seq`, discarding buffered items and
  // any remembered end/failure. Used when restoring from a checkpoint.
  void ResumeAt(uint64_t seq);

  const Uid& source() const { return source_; }
  const Value& channel() const { return channel_; }

 private:
  Task<void> FetchOnce();
  Task<void> FetchLoop();
  void Ingest(InvokeResult result);
  uint64_t ack() const { return explicit_durable_ ? durable_ : consumed(); }

  Eject& owner_;
  Uid source_;
  Value channel_;
  Options options_;
  Ring<Value> buffer_;
  bool ended_ = false;
  bool loop_started_ = false;
  bool fetch_in_flight_ = false;
  Status status_;
  uint64_t next_seq_ = 0;  // position of the next item to fetch
  uint64_t durable_ = 0;
  bool explicit_durable_ = false;
  CondVar available_;   // consumer waits (lookahead mode)
  CondVar room_;        // fetch process waits (lookahead mode)
  CondVar fetch_done_;  // duplicate inline fetchers wait here
};

}  // namespace eden

#endif  // SRC_CORE_STREAM_READER_H_
