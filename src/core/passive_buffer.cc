#include "src/core/passive_buffer.h"

#include <utility>

#include "src/eden/metrics.h"

namespace eden {

PassiveBuffer::PassiveBuffer(Kernel& kernel, Options options)
    : Eject(kernel, kType), options_(options), acceptor_(*this), server_(*this) {
  StreamAcceptor::ChannelOptions in;
  in.capacity = options_.capacity;
  in.hiwat = options_.hiwat;
  in.lowat = options_.lowat;
  in.sequenced = options_.sequenced;
  acceptor_.DeclareChannel(std::string(kChanIn), in);
  acceptor_.InstallOps();

  StreamServer::ChannelOptions out;
  // The pipe's store is split across its input and output buffers; giving
  // the output side the full capacity lets batched Transfers drain whole
  // batches, as a Unix read(2) on a pipe would.
  out.capacity = options_.capacity;
  out.hiwat = options_.hiwat;
  out.lowat = options_.lowat;
  out.sequenced = options_.sequenced;
  server_.DeclareChannel(std::string(kChanOut), out);
  server_.InstallOps();
}

void PassiveBuffer::OnStart() {
  Spawn(BandLoop(Band::kControl));
  Spawn(BandLoop(Band::kData));
}

Task<void> PassiveBuffer::BandLoop(Band band) {
  for (;;) {
    std::optional<StreamAcceptor::Taken> taken =
        co_await acceptor_.Take(kChanIn, band);
    if (!taken) {
      break;
    }
    // Bands survive the pipe: a control item that overtook data at the
    // input face is written to the output face's control band, where it
    // overtakes whatever data is still queued there too (and is exempt
    // from the output face's flow control).
    co_await server_.Write(kChanOut, std::move(taken->item), band);
    // The pipe's store is the sum of both faces.
    kernel().ObserveQueueDepth(
        QueueComponent::kPipe, *this,
        acceptor_.buffered(kChanIn) + server_.buffered(kChanOut));
  }
  if (++loops_done_ == 2) {
    server_.Close(std::string(kChanOut));
  }
}

}  // namespace eden
