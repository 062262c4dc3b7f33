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

// -------------------------------------------------------------- ActiveOutput

Task<void> ActiveOutput::Close() {
  for (auto& [channel, writer] : writers_) {
    co_await writer->End();
  }
}

Value ActiveOutput::Save() const {
  Value out;
  for (const auto& [channel, writer] : writers_) {
    out.Set(channel, writer->SaveState());
  }
  return out;
}

void ActiveOutput::Restore(const Value& out) {
  for (auto& [channel, writer] : writers_) {
    if (out.HasField(channel)) {
      writer->RestoreState(out.Field(channel));
    }
  }
}

// -------------------------------------------------------------------- Filter

template <typename DisciplineOptions>
Filter<DisciplineOptions>::Filter(Kernel& kernel, std::unique_ptr<Transform> transform,
                                  Options options)
    : Eject(kernel, options.recovery.eject_type.empty() ? std::string(kType)
                                                        : options.recovery.eject_type),
      transform_((assert(transform != nullptr), std::move(transform))),
      options_(std::move(options)),
      input_(*this, options_, *transform_),
      output_(*this, options_, *transform_) {
  if (options_.recovery.enabled) {
    // Nothing upstream may be forgotten until our first checkpoint covers it.
    input_.SetDurable(0);
    Register("Ping", [](InvocationContext ctx) { ctx.Reply(); });
  }
}

template <typename DisciplineOptions>
void Filter<DisciplineOptions>::OnStart() {
  Spawn(Run());
}

template <typename DisciplineOptions>
void Filter<DisciplineOptions>::OnActivate() {
  Spawn(Run());
}

template <typename DisciplineOptions>
Value Filter<DisciplineOptions>::SaveState() {
  Value state;
  state.Set("in", input_.Save());
  state.Set("processed", Value(items_processed_));
  state.Set("transform", transform_->SaveState());
  state.Set(Output::kStateKey, output_.Save());
  return state;
}

template <typename DisciplineOptions>
void Filter<DisciplineOptions>::RestoreState(const Value& state) {
  restored_ = true;
  input_.Restore(state.Field("in"));
  items_processed_ = static_cast<uint64_t>(state.Field("processed").IntOr(0));
  transform_->RestoreState(state.Field("transform"));
  output_.Restore(state.Field(Output::kStateKey));
}

template <typename DisciplineOptions>
Task<void> Filter<DisciplineOptions>::DoCheckpoint() {
  co_await Sleep(kernel_.costs().checkpoint);
  Checkpoint();
  // Everything the checkpoint consumed is durable here; upstream may drop
  // it from its replay window.
  input_.SetDurable(input_.position());
}

template <typename DisciplineOptions>
Task<void> Filter<DisciplineOptions>::Run() {
  const bool recovery = options_.recovery.enabled;
  if (recovery && !restored_) {
    // Establish a passive representation before any fault can land, so a
    // reactivating invocation always finds one.
    co_await DoCheckpoint();
  }
  co_await output_.Ready();
  for (;;) {
    std::optional<Value> item = co_await input_.Next();
    if (!item) {
      break;
    }
    // The input end's done policy: drain a passive input, stop an active one.
    if (Input::kDrainsWhenDone && transform_->Done()) {
      continue;
    }
    items_processed_++;
    if (options_.processing_cost > 0) {
      co_await Sleep(options_.processing_cost);
    }
    for (auto& [channel, value] : ApplyItem(*transform_, *item, emitted_)) {
      if (auto write = output_.Write(channel, std::move(value)); write.valid()) {
        co_await write;
      }
    }
    if (!Input::kDrainsWhenDone && transform_->Done()) {
      break;
    }
    if (recovery && items_processed_ % options_.recovery.checkpoint_every == 0) {
      co_await DoCheckpoint();
    }
  }
  if (output_.Aborted(input_.status())) {
    co_return;
  }
  for (auto& [channel, value] : ApplyEnd(*transform_, emitted_)) {
    if (auto write = output_.Write(channel, std::move(value)); write.valid()) {
      co_await write;
    }
  }
  co_await output_.Close();
  if (recovery) {
    // Final checkpoint: a crash after this still serves the tail (and the
    // end markers) from the restored replay window.
    co_await DoCheckpoint();
  }
}

template class Filter<ReadOnlyFilterOptions>;
template class Filter<WriteOnlyFilterOptions>;
template class Filter<ConventionalFilterOptions>;

}  // namespace eden
