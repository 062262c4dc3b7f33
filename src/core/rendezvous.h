// CSP-style rendezvous, for the paper's §3 comparison.
//
// "It is interesting to compare this implementation with input and output in
//  Hoare's CSP ... Both ! and ? may be regarded as active, and the (software
//  or hardware) interpreter as the passive connection which transfers data
//  from one to the other."                                       (paper §3)
//
// CspChannel is that passive interpreter built as an Eject: Send (!) and
// Receive (?) invocations park until a partner arrives, then both complete
// simultaneously — an unbuffered, synchronous channel. Structurally it costs
// what a passive buffer costs (one extra Eject, two invocations per datum
// per junction) while buffering nothing, which is exactly why §3's second
// and third interpretations (one side passive) — i.e. the read-only and
// write-only disciplines — are the interesting ones. The ablation benchmark
// bench_ablation_csp measures the three interpretations side by side.
//
// Protocol:
//   Send    {item}  -> {}            parks until a receiver arrives
//   Receive {}      -> {item, end}   parks until a sender (or Close) arrives
//   Close   {}      -> {}            all parked/future Receives get end=true;
//                                    parked/future Sends fail kEndOfStream
#ifndef SRC_CORE_RENDEZVOUS_H_
#define SRC_CORE_RENDEZVOUS_H_

#include <utility>

#include "src/eden/eject.h"
#include "src/eden/ring.h"

namespace eden {

class CspChannel : public Eject {
 public:
  static constexpr const char* kType = "CspChannel";

  explicit CspChannel(Kernel& kernel);

  size_t parked_senders() const { return senders_.size(); }
  size_t parked_receivers() const { return receivers_.size(); }
  uint64_t exchanged() const { return exchanged_; }
  bool closed() const { return closed_; }

 private:
  void HandleSend(InvocationContext ctx);
  void HandleReceive(InvocationContext ctx);
  void HandleClose(InvocationContext ctx);

  Ring<std::pair<Value, ReplyHandle>> senders_;
  Ring<ReplyHandle> receivers_;
  bool closed_ = false;
  uint64_t exchanged_ = 0;
};

}  // namespace eden

#endif  // SRC_CORE_RENDEZVOUS_H_
