#include "src/core/filter_eject.h"

#include <cassert>

namespace eden {

EmittedItems& ApplyItem(Transform& transform, const Value& item, EmittedItems& emitted) {
  emitted.clear();
  transform.OnItem(item, [&emitted](std::string_view channel, Value v) {
    emitted.emplace_back(std::string(channel), std::move(v));
  });
  return emitted;
}

EmittedItems& ApplyEnd(Transform& transform, EmittedItems& emitted) {
  emitted.clear();
  transform.OnEnd([&emitted](std::string_view channel, Value v) {
    emitted.emplace_back(std::string(channel), std::move(v));
  });
  return emitted;
}

namespace {
std::string FilterTypeName(const char* fallback,
                           const FilterRecoveryOptions& recovery) {
  return recovery.eject_type.empty() ? std::string(fallback)
                                     : recovery.eject_type;
}
}  // namespace

// ------------------------------------------------------------ ReadOnlyFilter

ReadOnlyFilter::ReadOnlyFilter(Kernel& kernel, std::unique_ptr<Transform> transform,
                               Options options)
    : Eject(kernel, FilterTypeName(kType, options.recovery)),
      transform_(std::move(transform)),
      options_(std::move(options)),
      reader_(*this, options_.source, options_.source_channel,
              StreamReader::Options{options_.batch, options_.lookahead,
                                    options_.recovery.effective_retry(),
                                    options_.recovery.enabled}),
      server_(*this),
      demand_(*this) {
  assert(transform_ != nullptr);
  std::vector<std::string> channels = transform_->output_channels();
  assert(!channels.empty());
  primary_channel_ = channels.front();
  for (const std::string& name : channels) {
    server_.DeclareChannel(
        name, ChannelOptions{.hiwat = options_.work_ahead,
                             .lowat = options_.work_ahead_lowat,
                             .capability_only = options_.capability_only_channels,
                             .sequenced = options_.recovery.enabled});
  }
  server_.InstallOps();
  if (options_.recovery.enabled) {
    // Nothing upstream may be forgotten until our first checkpoint covers it.
    reader_.set_durable(0);
    Register("Ping", [](InvocationContext ctx) { ctx.Reply(); });
  }
  if (options_.start_on_demand) {
    server_.set_on_first_demand([this] { demand_.Open(); });
  } else {
    demand_.Open();
  }
}

void ReadOnlyFilter::OnStart() { Spawn(Run()); }

void ReadOnlyFilter::OnActivate() { Spawn(Run()); }

Value ReadOnlyFilter::SaveState() {
  Value state;
  state.Set("in", Value(reader_.consumed()));
  state.Set("processed", Value(items_processed_));
  state.Set("transform", transform_->SaveState());
  state.Set("server", server_.SaveChannels());
  return state;
}

void ReadOnlyFilter::RestoreState(const Value& state) {
  restored_ = true;
  items_processed_ = static_cast<uint64_t>(state.Field("processed").IntOr(0));
  transform_->RestoreState(state.Field("transform"));
  server_.RestoreChannels(state.Field("server"));
  uint64_t in = static_cast<uint64_t>(state.Field("in").IntOr(0));
  reader_.ResumeAt(in);
  reader_.set_durable(in);
}

Task<void> ReadOnlyFilter::DoCheckpoint() {
  co_await Sleep(kernel_.costs().checkpoint);
  Checkpoint();
  // Everything the checkpoint consumed is durable here; upstream may drop
  // it from its replay window.
  reader_.set_durable(reader_.consumed());
}

Task<void> ReadOnlyFilter::Run() {
  const bool recovery = options_.recovery.enabled;
  if (recovery && !restored_) {
    // Establish a passive representation before any fault can land, so a
    // reactivating invocation always finds one.
    co_await DoCheckpoint();
  }
  // §4 laziness: "each Eject may be programmed so as not to do any work
  // until it is asked for output."
  co_await demand_.Wait();
  for (;;) {
    std::optional<Value> item = co_await reader_.Next();
    if (!item) {
      break;
    }
    items_processed_++;
    if (options_.processing_cost > 0) {
      co_await Sleep(options_.processing_cost);
    }
    for (auto& [channel, value] : ApplyItem(*transform_, *item, emitted_)) {
      co_await server_.Write(channel, std::move(value));
    }
    if (transform_->Done()) {
      break;  // lazy pull: stop issuing Transfers; even infinite upstreams end
    }
    if (recovery && items_processed_ % options_.recovery.checkpoint_every == 0) {
      co_await DoCheckpoint();
    }
  }
  if (!reader_.status().ok_or_end()) {
    // Upstream crashed mid-stream: propagate the failure instead of
    // masquerading as a clean end.
    server_.AbortAll(reader_.status());
    co_return;
  }
  for (auto& [channel, value] : ApplyEnd(*transform_, emitted_)) {
    co_await server_.Write(channel, std::move(value));
  }
  server_.CloseAll();
  if (recovery) {
    // Final checkpoint: a crash after this still serves the tail (and the
    // end markers) from the restored replay window.
    co_await DoCheckpoint();
  }
}

// ----------------------------------------------------------- WriteOnlyFilter

WriteOnlyFilter::WriteOnlyFilter(Kernel& kernel, std::unique_ptr<Transform> transform,
                                 Options options)
    : Eject(kernel, FilterTypeName(kType, options.recovery)),
      transform_(std::move(transform)),
      options_(std::move(options)),
      acceptor_(*this) {
  assert(transform_ != nullptr);
  acceptor_.DeclareChannel(
      std::string(kChanIn),
      ChannelOptions{.hiwat = options_.input_hiwat,
                     .lowat = options_.input_lowat,
                     .sequenced = options_.recovery.enabled});
  acceptor_.InstallOps();
  if (options_.recovery.enabled) {
    // Until the first checkpoint, advertise nothing as durable: the sender
    // must keep its whole replay window for us.
    acceptor_.SetDurable(kChanIn, 0);
    Register("Ping", [](InvocationContext ctx) { ctx.Reply(); });
  }
}

void WriteOnlyFilter::BindOutput(const std::string& channel, Uid sink,
                                 Value sink_channel) {
  StreamWriter::Options writer{options_.batch,
                               options_.recovery.effective_retry(),
                               options_.recovery.enabled};
  writers_[channel] =
      std::make_unique<StreamWriter>(*this, sink, std::move(sink_channel), writer);
}

void WriteOnlyFilter::OnStart() { Spawn(Run()); }

void WriteOnlyFilter::OnActivate() { Spawn(Run()); }

Value WriteOnlyFilter::SaveState() {
  Value state;
  state.Set("in", acceptor_.SaveChannels());
  state.Set("processed", Value(items_processed_));
  state.Set("transform", transform_->SaveState());
  Value out;
  for (auto& [channel, writer] : writers_) {
    out.Set(channel, writer->SaveState());
  }
  state.Set("out", std::move(out));
  return state;
}

void WriteOnlyFilter::RestoreState(const Value& state) {
  restored_ = true;
  acceptor_.RestoreChannels(state.Field("in"));
  items_processed_ = static_cast<uint64_t>(state.Field("processed").IntOr(0));
  transform_->RestoreState(state.Field("transform"));
  const Value& out = state.Field("out");
  for (auto& [channel, writer] : writers_) {
    if (out.HasField(channel)) {
      writer->RestoreState(out.Field(channel));
    }
  }
}

Task<void> WriteOnlyFilter::DoCheckpoint() {
  co_await Sleep(kernel_.costs().checkpoint);
  Checkpoint();
  acceptor_.SetDurable(kChanIn, acceptor_.accepted(kChanIn));
}

Task<void> WriteOnlyFilter::Run() {
  const bool recovery = options_.recovery.enabled;
  if (recovery && !restored_) {
    co_await DoCheckpoint();
  }
  for (;;) {
    std::optional<Value> item = co_await acceptor_.Next(kChanIn);
    if (!item) {
      break;
    }
    if (transform_->Done()) {
      continue;  // cannot stop an active-output upstream: drain and discard
    }
    items_processed_++;
    if (options_.processing_cost > 0) {
      co_await Sleep(options_.processing_cost);
    }
    for (auto& [channel, value] : ApplyItem(*transform_, *item, emitted_)) {
      auto it = writers_.find(channel);
      if (it != writers_.end()) {
        co_await it->second->Write(std::move(value));
      }
    }
    if (recovery && items_processed_ % options_.recovery.checkpoint_every == 0) {
      co_await DoCheckpoint();
    }
  }
  for (auto& [channel, value] : ApplyEnd(*transform_, emitted_)) {
    auto it = writers_.find(channel);
    if (it != writers_.end()) {
      co_await it->second->Write(std::move(value));
    }
  }
  for (auto& [channel, writer] : writers_) {
    co_await writer->End();
  }
  if (recovery) {
    co_await DoCheckpoint();
  }
}

// -------------------------------------------------------- ConventionalFilter

ConventionalFilter::ConventionalFilter(Kernel& kernel,
                                       std::unique_ptr<Transform> transform,
                                       Options options)
    : Eject(kernel, FilterTypeName(kType, options.recovery)),
      transform_(std::move(transform)),
      options_(std::move(options)),
      reader_(*this, options_.source, options_.source_channel,
              StreamReader::Options{options_.batch, options_.lookahead,
                                    options_.recovery.effective_retry(),
                                    options_.recovery.enabled}) {
  assert(transform_ != nullptr);
  if (options_.recovery.enabled) {
    reader_.set_durable(0);
    Register("Ping", [](InvocationContext ctx) { ctx.Reply(); });
  }
}

void ConventionalFilter::BindOutput(const std::string& channel, Uid sink,
                                    Value sink_channel) {
  StreamWriter::Options writer{options_.batch,
                               options_.recovery.effective_retry(),
                               options_.recovery.enabled};
  writers_[channel] =
      std::make_unique<StreamWriter>(*this, sink, std::move(sink_channel), writer);
}

void ConventionalFilter::OnStart() { Spawn(Run()); }

void ConventionalFilter::OnActivate() { Spawn(Run()); }

Value ConventionalFilter::SaveState() {
  Value state;
  state.Set("in", Value(reader_.consumed()));
  state.Set("processed", Value(items_processed_));
  state.Set("transform", transform_->SaveState());
  Value out;
  for (auto& [channel, writer] : writers_) {
    out.Set(channel, writer->SaveState());
  }
  state.Set("out", std::move(out));
  return state;
}

void ConventionalFilter::RestoreState(const Value& state) {
  restored_ = true;
  items_processed_ = static_cast<uint64_t>(state.Field("processed").IntOr(0));
  transform_->RestoreState(state.Field("transform"));
  uint64_t in = static_cast<uint64_t>(state.Field("in").IntOr(0));
  reader_.ResumeAt(in);
  reader_.set_durable(in);
  const Value& out = state.Field("out");
  for (auto& [channel, writer] : writers_) {
    if (out.HasField(channel)) {
      writer->RestoreState(out.Field(channel));
    }
  }
}

Task<void> ConventionalFilter::DoCheckpoint() {
  co_await Sleep(kernel_.costs().checkpoint);
  Checkpoint();
  reader_.set_durable(reader_.consumed());
}

Task<void> ConventionalFilter::Run() {
  const bool recovery = options_.recovery.enabled;
  if (recovery && !restored_) {
    co_await DoCheckpoint();
  }
  for (;;) {
    std::optional<Value> item = co_await reader_.Next();
    if (!item) {
      break;
    }
    items_processed_++;
    if (options_.processing_cost > 0) {
      co_await Sleep(options_.processing_cost);
    }
    for (auto& [channel, value] : ApplyItem(*transform_, *item, emitted_)) {
      auto it = writers_.find(channel);
      if (it != writers_.end()) {
        co_await it->second->Write(std::move(value));
      }
    }
    if (transform_->Done()) {
      break;  // stop pulling; the upstream pipe simply stays full
    }
    if (recovery && items_processed_ % options_.recovery.checkpoint_every == 0) {
      co_await DoCheckpoint();
    }
  }
  for (auto& [channel, value] : ApplyEnd(*transform_, emitted_)) {
    auto it = writers_.find(channel);
    if (it != writers_.end()) {
      co_await it->second->Write(std::move(value));
    }
  }
  for (auto& [channel, writer] : writers_) {
    co_await writer->End();
  }
  if (recovery) {
    co_await DoCheckpoint();
  }
}

}  // namespace eden
