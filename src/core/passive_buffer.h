// PassiveBuffer: the Unix pipe rebuilt as an Eject (paper §3, Figure 1).
//
// "Because entities like Unix pipes perform both buffering and passive
//  transput, I will refer to them as passive buffers."          (paper §3)
//
// It performs passive input (accepts Push) and passive output (answers
// Transfer), with watermarked faces providing pipe-style flow control.
// The conventional-discipline pipelines interpose one of these between
// every pair of active Ejects — which is exactly the structural overhead
// the read-only discipline eliminates.
#ifndef SRC_CORE_PASSIVE_BUFFER_H_
#define SRC_CORE_PASSIVE_BUFFER_H_

#include <string>

#include "src/core/stream_acceptor.h"
#include "src/core/stream_server.h"
#include "src/eden/eject.h"

namespace eden {

struct PassiveBufferOptions {
  // Watermarks for both faces (lowat 0 = derive as hiwat/2). Producers
  // pushing at the input face block at hiwat and are released once the face
  // drains below lowat. The output face gets the same bound, so batched
  // Transfers drain whole batches, as a Unix read(2) on a pipe would.
  size_t hiwat = 16;
  size_t lowat = 0;
  // Fault tolerance: sequence both faces of the pipe, so a restarted
  // neighbour can resend (input face deduplicates) or re-request (output
  // face replays) without loss or duplication.
  bool sequenced = false;
};

class PassiveBuffer : public Eject {
 public:
  static constexpr const char* kType = "PassiveBuffer";

  using Options = PassiveBufferOptions;

  explicit PassiveBuffer(Kernel& kernel, Options options = {});

  void OnStart() override;

  uint64_t items_through() const { return server_.items_delivered(); }

 private:
  // Copies one band from the input buffer to the output buffer; closes the
  // output once both band loops have drained a finished input. One loop per
  // band (STREAMS service procedures): the control loop never waits behind
  // a data item stuck in output-face flow control, so control latency stays
  // independent of data-band saturation through the pipe.
  Task<void> BandLoop(Band band);

  Options options_;
  StreamAcceptor acceptor_;
  StreamServer server_;
  int loops_done_ = 0;
};

}  // namespace eden

#endif  // SRC_CORE_PASSIVE_BUFFER_H_
