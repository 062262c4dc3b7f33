#include "src/eden/sync.h"

namespace eden {

Uid CondVar::host_uid() const { return owner_ != nullptr ? owner_->uid() : Uid(); }

void CondVar::Notify() {
  kernel_.CountLocalStep();
  if (waiters_.empty()) {
    return;
  }
  std::coroutine_handle<> h = waiters_.front();
  waiters_.pop_front();
  kernel_.ScheduleResume(owner_, h);
}

void CondVar::NotifyAll() {
  kernel_.CountLocalStep();
  while (!waiters_.empty()) {
    std::coroutine_handle<> h = waiters_.front();
    waiters_.pop_front();
    kernel_.ScheduleResume(owner_, h);
  }
}

Mutex::Mutex(Eject& owner, std::string name)
    : available_(owner),
      kernel_(owner.kernel()),
      id_(owner.kernel().AllocateLockId()),
      name_(std::move(name)) {
  available_.hook_blocking_ = false;
}

Mutex::Mutex(Kernel& kernel, std::string name)
    : available_(kernel),
      kernel_(kernel),
      id_(kernel.AllocateLockId()),
      name_(std::move(name)) {
  available_.hook_blocking_ = false;
}

Task<void> Mutex::Lock() {
  while (locked_) {
    co_await available_.Wait();
  }
  locked_ = true;
  if (LockObserver* observer = kernel_.lock_observer()) {
    observer->OnAcquire(host_uid(), id_, name_, kernel_.now());
  }
}

void Mutex::Unlock() {
  locked_ = false;
  if (LockObserver* observer = kernel_.lock_observer()) {
    observer->OnRelease(host_uid(), id_, kernel_.now());
  }
  available_.Notify();
}

}  // namespace eden
