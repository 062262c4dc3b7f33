// Eject: the base class for every entity in the system.
//
// "Ejects and invocations are the only entities in the Eden system." (§1)
//
// A concrete Eject registers named operation handlers in its constructor,
// may spawn internal processes (coroutines), and may checkpoint its state.
// The *behaviour* — the set of operations and their semantics — is the only
// thing visible to other Ejects (§2's "two notions of type").
#ifndef SRC_EDEN_EJECT_H_
#define SRC_EDEN_EJECT_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/eden/kernel.h"

namespace eden {

class Eject {
 public:
  using Handler = std::function<void(InvocationContext)>;
  using TaskHandler = std::function<Task<void>(InvocationContext)>;

  Eject(Kernel& kernel, std::string type_name);
  Eject(const Eject&) = delete;
  Eject& operator=(const Eject&) = delete;
  virtual ~Eject();

  Kernel& kernel() { return kernel_; }
  const Uid& uid() const { return uid_; }
  NodeId node() const { return node_; }
  const std::string& type_name() const { return type_name_; }

  // ---- Lifecycle hooks.
  // Called once after the Eject is registered (first creation only).
  virtual void OnStart() {}
  // Called after RestoreState when the kernel reactivates a passive Eject.
  virtual void OnActivate() {}
  // The passive representation. Types that checkpoint must implement both.
  virtual Value SaveState() { return Value(); }
  virtual void RestoreState(const Value& state) { (void)state; }

  // Writes SaveState() to the StableStore (the paper's Checkpoint primitive).
  void Checkpoint() { kernel_.Checkpoint(*this); }
  // Schedules this Eject's own teardown; safe to call from its handlers and
  // coroutines (teardown happens after the current event completes).
  void RequestDeactivate() { kernel_.RequestDeactivate(uid_); }

  // Starts a detached internal process. Destroyed on crash/deactivation.
  void Spawn(Task<void> task);

  // Awaitables bound to this Eject. A nonzero `deadline` makes the await
  // resume with kDeadlineExceeded if no reply is sent within that many ticks.
  InvokeAwaiter Invoke(Uid target, std::string op, Body args = Value(),
                       Tick deadline = 0) {
    return kernel_.Invoke(*this, target, std::move(op), std::move(args), deadline);
  }
  SleepAwaiter Sleep(Tick delay) { return SleepAwaiter(kernel_, this, delay); }
  SleepAwaiter Yield() { return SleepAwaiter(kernel_, this, 0); }

  // Kernel entry point: routes a delivered invocation to the registered
  // handler, or answers kNoSuchOperation.
  void Dispatch(InvocationContext ctx);

  std::vector<std::string> Operations() const;
  bool Responds(const std::string& op) const { return ops_.count(op) > 0; }

  // Registration hook for library components (StreamServer, StreamAcceptor)
  // that install protocol operations on the Eject embedding them.
  void RegisterOp(std::string op, Handler handler) {
    Register(std::move(op), std::move(handler));
  }

  size_t live_process_count() const { return tasks_.size(); }

 protected:
  void Register(std::string op, Handler handler);
  // Registers a coroutine handler: each delivery spawns a process.
  void RegisterTask(std::string op, TaskHandler handler);

  Kernel& kernel_;

 private:
  friend class Kernel;

  // Set by Kernel::AllocateEjectSlot, in the constructor body.
  Uid uid_;
  NodeId node_ = 0;
  uint32_t slot_ = 0;  // index into node_'s slot table
  std::string type_name_;
  std::map<std::string, Handler> ops_;
  TaskList tasks_;
};

}  // namespace eden

#endif  // SRC_EDEN_EJECT_H_
