#include "fiber.hh"

#include <cstdint>
#include <new>

#include <sys/mman.h>

#include "sim/log.hh"

// ThreadSanitizer needs to be told about user-level context switches
// (the fiber API); otherwise the stack switches below look like a
// single thread racing against its own stack.
#if defined(__SANITIZE_THREAD__)
#define SWSM_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SWSM_TSAN_FIBERS 1
#endif
#endif

// AddressSanitizer likewise needs each switch announced with the
// destination stack's bounds, or it mistakes the fiber stacks for
// wild memory (it intercepts swapcontext, but not the switch below).
#if defined(__SANITIZE_ADDRESS__)
#define SWSM_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SWSM_ASAN_FIBERS 1
#endif
#endif

#ifdef SWSM_TSAN_FIBERS
extern "C" {
void *__tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void *fiber);
void __tsan_switch_to_fiber(void *fiber, unsigned flags);
void *__tsan_get_current_fiber(void);
}
#endif

#ifdef SWSM_ASAN_FIBERS
extern "C" {
void __sanitizer_start_switch_fiber(void **fake_stack_save,
                                    const void *bottom, std::size_t size);
void __sanitizer_finish_switch_fiber(void *fake_stack_save,
                                     const void **bottom_old,
                                     std::size_t *size_old);
void __asan_unpoison_memory_region(void const volatile *addr,
                                   std::size_t size);
}
#endif

#ifdef SWSM_FIBER_X86_64
/**
 * Save the callee-saved state on the current stack, store the stack
 * pointer to *save_sp, then load load_sp and restore the state found
 * there; returns on the other stack. Frame, from the saved stack
 * pointer up: MXCSR (4 bytes) and x87 control word (2 bytes) in one
 * 8-byte slot, r15, r14, r13, r12, rbx, rbp, return address.
 */
extern "C" void swsm_fiber_switch(void **save_sp, void *load_sp);

asm(R"(
    .pushsection .text
    .globl swsm_fiber_switch
    .hidden swsm_fiber_switch
    .type swsm_fiber_switch, @function
    .p2align 4
swsm_fiber_switch:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq $8, %rsp
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
    .size swsm_fiber_switch, .-swsm_fiber_switch
    .popsection
)");
#endif

namespace swsm
{

namespace
{
thread_local Fiber *current_fiber = nullptr;

inline void *
tsanCreateFiber()
{
#ifdef SWSM_TSAN_FIBERS
    return __tsan_create_fiber(0);
#else
    return nullptr;
#endif
}

inline void
tsanDestroyFiber(void *fiber)
{
#ifdef SWSM_TSAN_FIBERS
    if (fiber)
        __tsan_destroy_fiber(fiber);
#else
    (void)fiber;
#endif
}

inline void *
tsanCurrentFiber()
{
#ifdef SWSM_TSAN_FIBERS
    return __tsan_get_current_fiber();
#else
    return nullptr;
#endif
}

/** Announce the switch; must run immediately before the stack switch. */
inline void
tsanSwitchTo(void *fiber)
{
#ifdef SWSM_TSAN_FIBERS
    __tsan_switch_to_fiber(fiber, 0);
#else
    (void)fiber;
#endif
}

/** Before a switch: the destination stack's bounds, and where to park
 *  the leaving context's fake stack (null: the leaving fiber is done). */
inline void
asanStartSwitch(void **fake_stack_save, const void *bottom,
                std::size_t size)
{
#ifdef SWSM_ASAN_FIBERS
    __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#else
    (void)fake_stack_save;
    (void)bottom;
    (void)size;
#endif
}

/** After a switch, on the arriving stack; reports the bounds of the
 *  stack switched away from. */
inline void
asanFinishSwitch(void *fake_stack_save, const void **bottom_old,
                 std::size_t *size_old)
{
#ifdef SWSM_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(fake_stack_save, bottom_old, size_old);
#else
    (void)fake_stack_save;
    (void)bottom_old;
    (void)size_old;
#endif
}

/**
 * Clear ASan's poison from a stack about to be unmapped. Frames that
 * never returned (a fiber destroyed while suspended, and every fiber's
 * final switch out) leave their redzones poisoned, and munmap does not
 * reset the shadow, so the next mapping at that address would inherit
 * them.
 */
inline void
asanUnpoison(const void *bytes, std::size_t size)
{
#ifdef SWSM_ASAN_FIBERS
    __asan_unpoison_memory_region(bytes, size);
#else
    (void)bytes;
    (void)size;
#endif
}

} // namespace

Fiber::Fiber(Body body, std::size_t stack_bytes)
    : body(std::move(body)), stackBytes(stack_bytes)
{
    // Anonymous mmap rather than the heap: a run touches only the top
    // of each stack, and freed heap blocks would come back already
    // resident, so recycled stacks would pin memory no run needs.
    void *p = mmap(nullptr, stack_bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                   -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    stack = static_cast<char *>(p);
#ifdef SWSM_FIBER_X86_64
    // Build the frame the first switch in pops: the creator's MXCSR
    // and x87 control word (what getcontext would have captured), zero
    // callee-saved registers, entry() as the return address, and a
    // zero fake return address above it that ends backtraces. entry()
    // starts with rsp = 8 (mod 16), as after a call.
    std::uint32_t mxcsr;
    std::uint16_t fpucw;
    asm volatile("stmxcsr %0" : "=m"(mxcsr));
    asm volatile("fnstcw %0" : "=m"(fpucw));
    const auto top =
        reinterpret_cast<std::uintptr_t>(stack + stack_bytes) &
        ~std::uintptr_t{15};
    auto *frame = reinterpret_cast<std::uint64_t *>(top) - 9;
    frame[0] = mxcsr | (std::uint64_t{fpucw} << 32);
    for (int i = 1; i <= 6; ++i)
        frame[i] = 0; // r15, r14, r13, r12, rbx, rbp
    frame[7] = reinterpret_cast<std::uintptr_t>(&Fiber::entry);
    frame[8] = 0;
    sp = frame;
#else
    if (getcontext(&context) != 0)
        SWSM_PANIC("getcontext failed");
    context.uc_stack.ss_sp = stack;
    context.uc_stack.ss_size = stack_bytes;
    context.uc_link = nullptr;

    // makecontext only passes int-sized arguments portably; split the
    // object pointer into two 32-bit halves.
    auto self = reinterpret_cast<std::uintptr_t>(this);
    unsigned hi = static_cast<unsigned>(self >> 32);
    unsigned lo = static_cast<unsigned>(self & 0xffffffffu);
    makecontext(&context, reinterpret_cast<void (*)()>(&Fiber::trampoline),
                2, hi, lo);
#endif
    tsanFiber = tsanCreateFiber();
}

Fiber::~Fiber()
{
    if (running_)
        SWSM_PANIC("destroying a running fiber");
    tsanDestroyFiber(tsanFiber);
    asanUnpoison(stack, stackBytes);
    munmap(stack, stackBytes);
}

#ifdef SWSM_FIBER_X86_64
void
Fiber::entry()
{
    current_fiber->run();
}
#else
void
Fiber::trampoline(unsigned hi, unsigned lo)
{
    auto self = reinterpret_cast<Fiber *>(
        (static_cast<std::uintptr_t>(hi) << 32) |
        static_cast<std::uintptr_t>(lo));
    self->run();
}
#endif

void
Fiber::run()
{
    asanFinishSwitch(nullptr, &asanReturnBottom, &asanReturnSize);
    body();
    finished_ = true;
    running_ = false;
    current_fiber = nullptr;
    // Final switch back to the resumer; never returns here.
    switchOut();
    SWSM_PANIC("resumed a finished fiber body");
}

void
Fiber::resume()
{
    if (finished_)
        SWSM_PANIC("resume() on a finished fiber");
    if (running_)
        SWSM_PANIC("resume() on the running fiber");
    Fiber *prev = current_fiber;
    current_fiber = this;
    running_ = true;
    tsanReturnFiber = tsanCurrentFiber();
    tsanSwitchTo(tsanFiber);
    void *fake_stack = nullptr;
    asanStartSwitch(&fake_stack, stack, stackBytes);
#ifdef SWSM_FIBER_X86_64
    swsm_fiber_switch(&returnSp, sp);
#else
    swapcontext(&returnContext, &context);
#endif
    asanFinishSwitch(fake_stack, nullptr, nullptr);
    current_fiber = prev;
}

void
Fiber::switchOut()
{
    tsanSwitchTo(tsanReturnFiber);
    asanStartSwitch(finished_ ? nullptr : &asanFakeStack, asanReturnBottom,
                    asanReturnSize);
#ifdef SWSM_FIBER_X86_64
    swsm_fiber_switch(&sp, returnSp);
#else
    swapcontext(&context, &returnContext);
#endif
    asanFinishSwitch(asanFakeStack, &asanReturnBottom, &asanReturnSize);
}

void
Fiber::yield()
{
    Fiber *self = current_fiber;
    if (!self)
        SWSM_PANIC("Fiber::yield() outside any fiber");
    self->running_ = false;
    self->switchOut();
    self->running_ = true;
}

Fiber *
Fiber::current()
{
    return current_fiber;
}

} // namespace swsm
