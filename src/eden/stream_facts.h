// The facts the stream primitives report through the kernel's feeds
// (Kernel::ObserveQueueDepth, ObserveFlowEvent, ObserveItems and
// ObserveSequence), and the names the instruments print them under. The
// stream ends name a fact and the kernel routes it, so nothing under
// src/core depends on an instrument's header.
#ifndef SRC_EDEN_STREAM_FACTS_H_
#define SRC_EDEN_STREAM_FACTS_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace eden {

// Flow-control incidents on one queue (see PROTOCOL.md "Flow control").
enum class FlowEvent : uint8_t {
  kHiwatHit,       // a producer was blocked/withheld at the high watermark
  kPutBack,        // an item was returned to the front of its band (putbq)
  kBandOvertake,   // a control item was served ahead of queued data
};

// The four kinds of queue that report depth and flow facts, interned. The
// ids ascend in name order, so a map keyed by (component, owner) iterates
// exactly as one keyed by the name would.
enum class QueueComponent : uint8_t { kAcceptor, kPipe, kReader, kServer };
inline constexpr std::string_view kQueueComponentNames[] = {"acceptor", "pipe",
                                                           "reader", "server"};
inline std::string_view QueueComponentName(QueueComponent component) {
  return kQueueComponentNames[static_cast<size_t>(component)];
}

// A move of items through a stage, named by the InvariantMonitor::Flow field
// it adds to, in that struct's field order (see monitor.h for each one).
enum class ItemFlow : uint8_t {
  kProduced, kServed, kPushed, kPulled, kAccepted, kConsumed, kPutBack
};
inline constexpr std::string_view kItemFlowNames[] = {
    "produced", "served", "pushed", "pulled", "accepted", "consumed", "putback"};
inline constexpr size_t kItemFlowCount = std::size(kItemFlowNames);

// The per-stage sequence counters the monitor checks for regressions,
// interned. The ids ascend in name order, as QueueComponent's do.
enum class SeqCounter : uint8_t { kAcceptorNext, kServerAck, kServerNext, kWriterAck };
inline constexpr std::string_view kSeqCounterNames[] = {"acceptor.next", "server.ack",
                                                        "server.next", "writer.ack"};
inline std::string_view SeqCounterName(SeqCounter counter) {
  return kSeqCounterNames[static_cast<size_t>(counter)];
}

}  // namespace eden

#endif  // SRC_EDEN_STREAM_FACTS_H_
