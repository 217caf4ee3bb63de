#ifndef TELEPORT_SIM_COOP_TASK_H_
#define TELEPORT_SIM_COOP_TASK_H_

#include <ucontext.h>

#include <cstddef>
#include <functional>
#include <vector>

#include "common/units.h"
#include "ddc/memory_system.h"
#include "sim/interleaver.h"

namespace teleport::sim {

/// Adapts straight-line simulated code (an engine query, a pushdown, an
/// interfering mutator) into a steppable Task without rewriting it as a
/// state machine. The body runs as a stackful fiber on the thread that calls
/// Step(): every charged access / CPU batch on the hooked ExecutionContexts
/// counts toward a quantum, and when the quantum fills the body switches
/// back to the scheduler and Step() returns. Only one fiber runs at a time,
/// on the scheduler's own thread, so execution is fully deterministic and
/// thread-local state (log sinks, bench record buffers) is the caller's.
///
/// The hooked contexts must be used by no other CoopTask; the body must
/// confine its simulated work to them (work on un-hooked contexts simply
/// never yields, which coarsens — but never corrupts — the interleaving).
class CoopTask : public Task {
 public:
  /// `ctxs`: the contexts whose accesses drive preemption; ctxs[0] is the
  /// primary (its virtual clock dominates ours between handoffs). `body`
  /// runs once on the fiber. `quantum` = charged operations per Step() (1
  /// gives the finest interleaving).
  CoopTask(std::vector<ddc::ExecutionContext*> ctxs,
           std::function<void()> body, int quantum = 1);

  /// Frees the fiber stack. If the task was abandoned mid-run (explorer
  /// bounds, failed test), the body is first unwound on its own stack with
  /// a private exception from its parked yield point — bodies must not
  /// catch(...) across yield points.
  ~CoopTask() override;

  CoopTask(const CoopTask&) = delete;
  CoopTask& operator=(const CoopTask&) = delete;

  Nanos clock() const override;
  bool done() const override { return done_; }
  void Step() override;

 private:
  struct Abort {};  // thrown into an abandoned body to unwind it

  static void YieldHook(void* self);
  /// makecontext entry point; the task pointer arrives split in two ints.
  static void FiberEntry(unsigned hi, unsigned lo);
  /// Scheduler side: runs the fiber until it yields or finishes.
  void Resume();
  /// Fiber side: parks the body and returns to the scheduler; throws Abort
  /// when resumed by the destructor.
  void Suspend();

  std::vector<ddc::ExecutionContext*> ctxs_;
  std::function<void()> body_;
  const int quantum_;
  int used_ = 0;  // charged ops in the current quantum
  bool started_ = false;
  bool done_ = false;
  bool aborting_ = false;

  void* mapping_ = nullptr;     // guard page + stack, from mmap
  void* stack_lo_ = nullptr;    // lowest usable stack byte
  ucontext_t fiber_{};          // the body, while parked
  ucontext_t scheduler_{};      // the Step() caller, while the body runs
  // Sanitizer fiber bookkeeping (unused in plain builds).
  const void* scheduler_stack_lo_ = nullptr;
  size_t scheduler_stack_size_ = 0;
  void* tsan_fiber_ = nullptr;
  void* tsan_scheduler_ = nullptr;
};

}  // namespace teleport::sim

#endif  // TELEPORT_SIM_COOP_TASK_H_
