#include "src/core/endpoints.h"

#include <utility>

namespace eden {

// --------------------------------------------------------------- VectorSource

VectorSource::VectorSource(Kernel& kernel, ValueList items, Options options)
    : Eject(kernel, kType),
      items_(std::move(items)),
      options_(options),
      server_(*this),
      demand_(*this) {
  ChannelOptions out{.hiwat = options_.work_ahead,
                     .lowat = options_.work_ahead_lowat,
                     .capability_only = options_.capability_only_channels,
                     .sequenced = options_.sequenced};
  server_.DeclareChannel(std::string(kChanOut), out);
  if (options_.report_every > 0) {
    server_.DeclareChannel(std::string(kChanReport), out);
  }
  server_.InstallOps();
  if (options_.start_on_demand) {
    server_.set_on_first_demand([this] { demand_.Open(); });
  } else {
    demand_.Open();
  }
}

void VectorSource::OnStart() { Spawn(Produce()); }

Task<void> VectorSource::Produce() {
  co_await demand_.Wait();
  for (Value& item : items_) {
    co_await server_.Write(kChanOut, std::move(item));
    produced_count_++;
    if (options_.report_every > 0 && produced_count_ % options_.report_every == 0) {
      co_await server_.Write(
          kChanReport,
          Value("source: " + std::to_string(produced_count_) + " items"));
    }
  }
  items_.clear();
  server_.CloseAll();
}

// ----------------------------------------------------------------- PushSource

PushSource::PushSource(Kernel& kernel, ValueList items, Options options)
    : Eject(kernel, kType), items_(std::move(items)), options_(options), bound_(*this) {}

void PushSource::BindOutput(Uid sink, Value sink_channel) {
  out_ = std::make_unique<StreamWriter>(
      *this, sink, std::move(sink_channel),
      StreamWriter::Options{options_.batch, options_.retry, options_.sequenced});
  bound_.Open();
}

void PushSource::BindReport(Uid sink, Value sink_channel) {
  report_ = std::make_unique<StreamWriter>(
      *this, sink, std::move(sink_channel),
      StreamWriter::Options{options_.batch, options_.retry, options_.sequenced});
}

void PushSource::OnStart() { Spawn(Produce()); }

Task<void> PushSource::Produce() {
  co_await bound_.Wait();
  for (Value& item : items_) {
    co_await out_->Write(std::move(item));
    produced_count_++;
    if (report_ != nullptr && options_.report_every > 0 &&
        produced_count_ % options_.report_every == 0) {
      co_await report_->Write(
          Value("source: " + std::to_string(produced_count_) + " items"));
    }
  }
  items_.clear();
  co_await out_->End();
  if (report_ != nullptr) {
    co_await report_->End();
  }
}

// ------------------------------------------------------------------- PullSink

PullSink::PullSink(Kernel& kernel, Uid source, Value channel, Options options)
    : Eject(kernel, kType),
      options_(options),
      reader_(*this, source, std::move(channel),
              StreamReader::Options{options.batch, options.lookahead,
                                    options.retry, options.sequenced}) {}

void PullSink::OnStart() { Spawn(Pump()); }

Task<void> PullSink::Pump() {
  for (;;) {
    std::optional<Value> item = co_await reader_.Next();
    if (!item) {
      break;
    }
    if (first_item_at_ < 0) {
      first_item_at_ = kernel_.now();
    }
    items_.push_back(std::move(*item));
    if (options_.max_items > 0 && items_.size() >= options_.max_items) {
      break;
    }
  }
  done_ = true;
}

// ------------------------------------------------------------------- PushSink

PushSink::PushSink(Kernel& kernel, Options options)
    : Eject(kernel, kType), options_(options), acceptor_(*this) {
  acceptor_.DeclareChannel(
      std::string(kChanIn),
      ChannelOptions{.hiwat = options_.hiwat, .lowat = options_.lowat,
                     .sequenced = options_.sequenced});
  acceptor_.InstallOps();
}

void PushSink::OnStart() { Spawn(Drain()); }

Task<void> PushSink::Drain() {
  for (;;) {
    std::optional<StreamAcceptor::Taken> taken = co_await acceptor_.Take(kChanIn);
    if (!taken) {
      break;
    }
    if (first_item_at_ < 0) {
      first_item_at_ = kernel_.now();
    }
    if (taken->band == Band::kControl) {
      control_items_.push_back(std::move(taken->item));
      control_at_.push_back(kernel_.now());
    } else {
      items_.push_back(std::move(taken->item));
    }
  }
  done_ = true;
}

}  // namespace eden
