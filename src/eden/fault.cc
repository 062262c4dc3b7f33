#include "src/eden/fault.h"

#include "src/eden/kernel.h"

namespace eden {

void FaultInjector::ScheduleCrash(Kernel& kernel, Tick at, Uid victim) {
  Tick delay = at > kernel.now() ? at - kernel.now() : 0;
  kernel.ScheduleAction(delay, [&kernel, victim] { kernel.Crash(victim); });
}

}  // namespace eden
