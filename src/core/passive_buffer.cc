#include "src/core/passive_buffer.h"

#include <utility>

#include "src/eden/stream_facts.h"

namespace eden {

PassiveBuffer::PassiveBuffer(Kernel& kernel, Options options)
    : Eject(kernel, kType), options_(options), acceptor_(*this), server_(*this) {
  ChannelOptions face{.hiwat = options_.hiwat, .lowat = options_.lowat,
                      .sequenced = options_.sequenced};
  acceptor_.DeclareChannel(std::string(kChanIn), face);
  acceptor_.InstallOps();
  server_.DeclareChannel(std::string(kChanOut), face);
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
