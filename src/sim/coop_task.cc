#include "sim/coop_task.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>

#include "common/logging.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace teleport::sim {

namespace {

/// The default pthread stack size. MAP_NORESERVE: only the pages a body
/// actually touches are ever backed.
constexpr size_t kStackBytes = size_t{8} << 20;

size_t GuardBytes() { return static_cast<size_t>(::sysconf(_SC_PAGESIZE)); }

/// Saves the running context into `from` and resumes `to`.
#if defined(__SANITIZE_ADDRESS__)
/// ASan's swapcontext interceptor warns on first use even when every switch
/// is annotated, so sanitized builds spell the same switch as getcontext +
/// setcontext, which it does not intercept.
void SwapContext(ucontext_t* from, const ucontext_t* to) {
  volatile bool resumed = false;
  TELEPORT_CHECK(::getcontext(from) == 0);
  if (resumed) return;
  resumed = true;
  ::setcontext(to);
}
#else
/// Always inlined: TSan keeps a shadow call stack per fiber, so no
/// instrumented call may sit between __tsan_switch_to_fiber and the switch.
[[gnu::always_inline]] inline void SwapContext(ucontext_t* from,
                                               const ucontext_t* to) {
  TELEPORT_CHECK(::swapcontext(from, to) == 0);
}
#endif

}  // namespace

CoopTask::CoopTask(std::vector<ddc::ExecutionContext*> ctxs,
                   std::function<void()> body, int quantum)
    : ctxs_(std::move(ctxs)), body_(std::move(body)), quantum_(quantum) {
  TELEPORT_CHECK(!ctxs_.empty()) << "CoopTask needs at least one context";
  TELEPORT_CHECK(quantum_ > 0);
  const size_t guard = GuardBytes();
  mapping_ = ::mmap(nullptr, guard + kStackBytes, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                    -1, 0);
  TELEPORT_CHECK(mapping_ != MAP_FAILED) << "CoopTask stack mmap failed";
  // Stacks grow down: the guard page below the stack turns an overflow
  // into a fault instead of silent corruption of a neighbouring mapping.
  TELEPORT_CHECK(::mprotect(mapping_, guard, PROT_NONE) == 0);
  stack_lo_ = static_cast<char*>(mapping_) + guard;

  TELEPORT_CHECK(::getcontext(&fiber_) == 0);
  fiber_.uc_stack.ss_sp = stack_lo_;
  fiber_.uc_stack.ss_size = kStackBytes;
  fiber_.uc_link = nullptr;  // FiberEntry never returns
  const auto self = reinterpret_cast<uintptr_t>(this);
  ::makecontext(&fiber_, reinterpret_cast<void (*)()>(&CoopTask::FiberEntry),
                2, static_cast<unsigned>(self >> 32),
                static_cast<unsigned>(self & 0xffffffffu));
#if defined(__SANITIZE_THREAD__)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

CoopTask::~CoopTask() {
  if (started_ && !done_) {
    // Abandoned mid-body: resume it so Suspend throws Abort and the body
    // unwinds on its own stack, running its destructors and unhooking.
    aborting_ = true;
    Resume();
    TELEPORT_CHECK(done_) << "abandoned CoopTask body did not unwind";
  }
#if defined(__SANITIZE_THREAD__)
  __tsan_destroy_fiber(tsan_fiber_);
#endif
  ::munmap(mapping_, GuardBytes() + kStackBytes);
}

Nanos CoopTask::clock() const {
  Nanos max_now = 0;
  for (const ddc::ExecutionContext* ctx : ctxs_) {
    if (ctx->now() > max_now) max_now = ctx->now();
  }
  return max_now;
}

void CoopTask::Step() {
  TELEPORT_DCHECK(!done_);
  started_ = true;
  Resume();
}

void CoopTask::Resume() {
#if defined(__SANITIZE_ADDRESS__)
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, stack_lo_, kStackBytes);
#endif
#if defined(__SANITIZE_THREAD__)
  tsan_scheduler_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  SwapContext(&scheduler_, &fiber_);
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
}

void CoopTask::Suspend() {
#if defined(__SANITIZE_ADDRESS__)
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, scheduler_stack_lo_,
                                 scheduler_stack_size_);
#endif
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(tsan_scheduler_, 0);
#endif
  SwapContext(&fiber_, &scheduler_);
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(fake_stack, &scheduler_stack_lo_,
                                  &scheduler_stack_size_);
#endif
  if (aborting_) throw Abort{};
}

void CoopTask::YieldHook(void* self) {
  auto* t = static_cast<CoopTask*>(self);
  if (++t->used_ < t->quantum_) return;
  t->used_ = 0;
  t->Suspend();
}

void CoopTask::FiberEntry(unsigned hi, unsigned lo) {
  auto* t = reinterpret_cast<CoopTask*>((static_cast<uintptr_t>(hi) << 32) |
                                        static_cast<uintptr_t>(lo));
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(nullptr, &t->scheduler_stack_lo_,
                                  &t->scheduler_stack_size_);
#endif
  for (ddc::ExecutionContext* ctx : t->ctxs_) {
    ctx->set_yield_hook(&CoopTask::YieldHook, t);
  }
  try {
    t->body_();
  } catch (const Abort&) {
    // Abandoned mid-run; unwind silently.
  }
  for (ddc::ExecutionContext* ctx : t->ctxs_) {
    ctx->set_yield_hook(nullptr, nullptr);
  }
  t->done_ = true;
  // Leave for good: the fiber's frames are dead, so ASan may drop its fake
  // stack (nullptr) and nothing needs saving.
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_start_switch_fiber(nullptr, t->scheduler_stack_lo_,
                                 t->scheduler_stack_size_);
#endif
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(t->tsan_scheduler_, 0);
#endif
  ::setcontext(&t->scheduler_);
}

}  // namespace teleport::sim
