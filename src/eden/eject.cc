#include "src/eden/eject.h"

#include <utility>

namespace eden {

Eject::Eject(Kernel& kernel, std::string type_name)
    : kernel_(kernel), type_name_(std::move(type_name)) {
  kernel.AllocateEjectSlot(*this);
}

Eject::~Eject() = default;

void Eject::Spawn(Task<void> task) {
  if (!task.valid()) {
    return;
  }
  std::coroutine_handle<> h = task.Detach(tasks_);
  kernel_.ScheduleResume(this, h);
}

void Eject::Dispatch(InvocationContext ctx) {
  auto it = ops_.find(ctx.op());
  if (it == ops_.end()) {
    ctx.ReplyError(StatusCode::kNoSuchOperation,
                   type_name_ + " does not respond to " + ctx.op());
    return;
  }
  it->second(std::move(ctx));
}

std::vector<std::string> Eject::Operations() const {
  std::vector<std::string> names;
  names.reserve(ops_.size());
  for (const auto& [name, handler] : ops_) {
    names.push_back(name);
  }
  return names;
}

void Eject::Register(std::string op, Handler handler) {
  ops_[std::move(op)] = std::move(handler);
}

void Eject::RegisterTask(std::string op, TaskHandler handler) {
  Register(std::move(op), [this, handler = std::move(handler)](InvocationContext ctx) {
    Spawn(handler(std::move(ctx)));
  });
}

}  // namespace eden
