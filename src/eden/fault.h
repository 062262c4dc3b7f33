// FaultInjector: deterministic, seeded fault injection for the kernel.
//
// The paper's kernel promises that failures are survivable — "the passive
// representation survives and the next invocation reactivates it" (§1) — but
// nothing in a clean run exercises that promise. The injector perturbs the
// message layer (drops, latency jitter) and the Eject population (scheduled
// crashes) so tests and benchmarks can measure how the stream disciplines
// degrade and recover.
//
// Determinism: all randomness flows from the explicit seed through one
// xorshift stream, consumed in event-queue order. Two kernels with identical
// inputs and identical FaultPlans produce byte-for-byte identical runs,
// including which messages are lost and when crashes land.
#ifndef SRC_EDEN_FAULT_H_
#define SRC_EDEN_FAULT_H_

#include <cstdint>

#include "src/eden/clock.h"
#include "src/eden/cost_model.h"
#include "src/eden/random.h"
#include "src/eden/uid.h"

namespace eden {

class Kernel;

struct FaultPlan {
  uint64_t seed = 0xFA17FA17FA17FA17ULL;
  // Probability that an invocation message vanishes in flight. The caller's
  // pending entry survives so a deadline (if any) can still fire.
  double drop_invocation = 0.0;
  // Probability that a reply message vanishes in flight. The invocation
  // stays pending at the caller until its deadline fires.
  double drop_reply = 0.0;
  // Extra latency, uniform in [0, jitter], added to every delivered message.
  Tick jitter = 0;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan = {}) : plan_(plan), rng_(plan.seed) {}
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultPlan& plan() const { return plan_; }

  // ---- Message-layer hooks (called by the kernel at send time).
  bool ShouldDropInvocation() { return Chance(plan_.drop_invocation); }
  bool ShouldDropReply() { return Chance(plan_.drop_reply); }
  Tick NextJitter() {
    if (plan_.jitter <= 0) {
      return 0;
    }
    return static_cast<Tick>(rng_.Below(static_cast<uint64_t>(plan_.jitter) + 1));
  }

  // ---- Scheduled failures. `at` is an absolute virtual time; a tick in the
  // past fires immediately. Crashing an already-gone Eject is a no-op.
  void ScheduleCrash(Kernel& kernel, Tick at, Uid victim);

  uint64_t invocations_dropped() const { return invocations_dropped_; }

 private:
  friend class Kernel;

  bool Chance(double p) { return p > 0.0 && rng_.Chance(p); }

  FaultPlan plan_;
  Rng rng_;
  uint64_t invocations_dropped_ = 0;
};

}  // namespace eden

#endif  // SRC_EDEN_FAULT_H_
