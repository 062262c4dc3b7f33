// Intra-Eject synchronization: the Concurrent Euclid monitor analogue.
//
// Paper §4: a filter may keep "a 'coordinator' process that receives incoming
// invocations, and a number of 'worker' processes"; the workers communicate
// through shared buffers guarded by conditions. These primitives are
// single-"threaded" in real time (the DES is sequential) but express exactly
// that blocking structure in virtual time, and every wakeup is charged a
// context switch while every queue operation is charged a (much cheaper)
// local step — the cost asymmetry §4 argues makes merging the passive buffer
// into its source profitable.
#ifndef SRC_EDEN_SYNC_H_
#define SRC_EDEN_SYNC_H_

#include <coroutine>
#include <optional>

#include "src/eden/eject.h"
#include "src/eden/kernel.h"
#include "src/eden/ring.h"
#include "src/eden/task.h"

namespace eden {

// A virtual-time condition variable owned by an Eject (or by the kernel's
// external driver when constructed with a Kernel only). No mutex is needed:
// the simulation is sequential, so condition checks are atomic by
// construction — but waiters must still re-test their predicate in a loop,
// because another process may run between Notify and the wakeup.
//
// When a LockObserver is installed on the kernel, every suspension is
// reported as a blocking point, so a process that waits on a condition
// while holding a Mutex is flagged as a potential-deadlock hazard (there is
// no atomic unlock-and-wait here; holding a lock across a wait parks every
// peer that needs it). The Mutex's own internal condition suppresses the
// hook — contending for a lock *is* the thing being analysed, not a hazard.
class CondVar {
 public:
  explicit CondVar(Eject& owner) : kernel_(owner.kernel()), owner_(&owner) {}
  explicit CondVar(Kernel& kernel) : kernel_(kernel), owner_(nullptr) {}
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  class [[nodiscard]] Waiter {
   public:
    explicit Waiter(CondVar& cv) : cv_(cv) {}
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      if (cv_.hook_blocking_) {
        if (LockObserver* observer = cv_.kernel_.lock_observer()) {
          observer->OnBlocking(cv_.host_uid(), "condition wait",
                               cv_.kernel_.now());
        }
      }
      cv_.waiters_.push_back(h);
    }
    void await_resume() const noexcept {}

   private:
    CondVar& cv_;
  };

  // co_await cv.Wait(); — suspends until Notify/NotifyAll.
  Waiter Wait() { return Waiter(*this); }

  // Wakes the longest-waiting process (FIFO: deterministic).
  void Notify();
  void NotifyAll();

  size_t waiter_count() const { return waiters_.size(); }

 private:
  friend class Mutex;

  Uid host_uid() const;

  Kernel& kernel_;
  Eject* owner_;
  bool hook_blocking_ = true;  // cleared by Mutex for its internal condition
  Ring<std::coroutine_handle<>> waiters_;
};

// A virtual-time mutual-exclusion lock. The sequential DES makes plain data
// races impossible, but *logical* exclusion across suspension points is
// still needed the moment a process co_awaits mid-critical-section (another
// process runs and may observe or mutate the half-updated state). The Mutex
// provides that exclusion — and, like lockdep, instruments every
// acquisition through the kernel's LockObserver so the verify layer can
// build the global lock-order graph and flag AB/BA inversions before any
// run actually deadlocks.
//
// The acquiring process is identified by the host Eject (nil for the
// kernel's external driver): lock ordering is checked at that granularity,
// which is conservative for Ejects running several worker processes.
class Mutex {
 public:
  explicit Mutex(Eject& owner, std::string name = "mutex");
  explicit Mutex(Kernel& kernel, std::string name = "mutex");
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  // co_await mutex.Lock(); ... mutex.Unlock();  FIFO and deterministic.
  Task<void> Lock();
  void Unlock();

  bool locked() const { return locked_; }
  uint64_t id() const { return id_; }
  const std::string& name() const { return name_; }

 private:
  Uid host_uid() const { return available_.host_uid(); }

  CondVar available_;
  Kernel& kernel_;
  bool locked_ = false;
  uint64_t id_;
  std::string name_;
};

// RAII-style scope helper for Mutex in coroutines:
//   co_await mutex.Lock();
//   LockGuard guard(mutex);   // unlocks on scope exit
struct LockGuard {
  explicit LockGuard(Mutex& mutex) : mutex_(mutex) {}
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;
  ~LockGuard() { mutex_.Unlock(); }

 private:
  Mutex& mutex_;
};

// A bounded FIFO connecting processes inside one Eject. This is the "buffer
// ... shared with a process that receives invocations which request data and
// services them" of §4. Close() propagates end-of-stream: Pop on a closed,
// empty queue yields nullopt.
template <typename T>
class BoundedQueue {
 public:
  BoundedQueue(Eject& owner, size_t capacity)
      : capacity_(capacity), not_empty_(owner), not_full_(owner), kernel_(owner.kernel()) {}

  // Awaits space, then enqueues. Returns false (dropping v) if closed.
  Task<bool> Push(T v) {
    while (!closed_ && Full()) {
      co_await not_full_.Wait();
    }
    if (closed_) {
      co_return false;
    }
    kernel_.CountLocalStep();
    items_.push_back(std::move(v));
    not_empty_.Notify();
    co_return true;
  }

  // Awaits an item; nullopt means closed-and-drained.
  Task<std::optional<T>> Pop() {
    while (items_.empty() && !closed_) {
      co_await not_empty_.Wait();
    }
    if (items_.empty()) {
      co_return std::nullopt;
    }
    kernel_.CountLocalStep();
    T v = std::move(items_.front());
    items_.pop_front();
    not_full_.Notify();
    co_return std::optional<T>(std::move(v));
  }

  bool TryPush(T v) {
    if (closed_ || Full()) {
      return false;
    }
    kernel_.CountLocalStep();
    items_.push_back(std::move(v));
    not_empty_.Notify();
    return true;
  }

  std::optional<T> TryPop() {
    if (items_.empty()) {
      return std::nullopt;
    }
    kernel_.CountLocalStep();
    T v = std::move(items_.front());
    items_.pop_front();
    not_full_.Notify();
    return std::optional<T>(std::move(v));
  }

  void Close() {
    closed_ = true;
    not_empty_.NotifyAll();
    not_full_.NotifyAll();
  }

  bool closed() const { return closed_; }
  bool Full() const { return capacity_ != 0 && items_.size() >= capacity_; }
  size_t size() const { return items_.size(); }
  size_t capacity() const { return capacity_; }

 private:
  size_t capacity_;  // 0 = unbounded
  bool closed_ = false;
  Ring<T> items_;
  CondVar not_empty_;
  CondVar not_full_;
  Kernel& kernel_;
};

// A latch: processes wait until it opens; it stays open.
class Gate {
 public:
  explicit Gate(Eject& owner) : cv_(owner) {}
  explicit Gate(Kernel& kernel) : cv_(kernel) {}

  Task<void> Wait() {
    while (!open_) {
      co_await cv_.Wait();
    }
  }

  void Open() {
    open_ = true;
    cv_.NotifyAll();
  }

  bool is_open() const { return open_; }

 private:
  bool open_ = false;
  CondVar cv_;
};

}  // namespace eden

#endif  // SRC_EDEN_SYNC_H_
