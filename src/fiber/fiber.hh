/**
 * @file
 * Cooperative fibers for execution-driven simulation.
 *
 * Each simulated processor runs its application thread on a Fiber; the
 * discrete-event scheduler resumes fibers in simulated-time order. This
 * plays the role the augmint execution-driven front end plays in the
 * paper: application code runs natively and interacts with the timing
 * model only at shared accesses and synchronization points.
 *
 * Fibers are strictly cooperative and single-OS-thread; there is no
 * preemption and no locking, which keeps simulations deterministic.
 *
 * On x86-64 (SysV) a switch saves and restores only what the ABI says
 * a callee must preserve: rbx, rbp, r12-r15, rsp, MXCSR and the x87
 * control word. glibc's swapcontext also saves the signal mask, which
 * costs a system call per switch; fibers never change the mask, so
 * other architectures keep the ucontext switch only as a fallback.
 */

#ifndef SWSM_FIBER_FIBER_HH
#define SWSM_FIBER_FIBER_HH

#include <cstddef>
#include <functional>

#if defined(__x86_64__) && !defined(_WIN32)
#define SWSM_FIBER_X86_64 1
#else
#include <ucontext.h>
#endif

namespace swsm
{

/**
 * A cooperative fiber with its own stack.
 *
 * Lifecycle: constructed with a body function; resume() switches into it;
 * the body calls Fiber::yield() to switch back to the resumer. When the
 * body returns, the fiber becomes finished() and further resumes panic.
 */
class Fiber
{
  public:
    using Body = std::function<void()>;

    /**
     * @param body function executed on the fiber
     * @param stack_bytes fiber stack size (default 256 KiB)
     */
    explicit Fiber(Body body, std::size_t stack_bytes = 256 * 1024);
    ~Fiber();

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    /**
     * Switch from the calling context into this fiber. Returns when the
     * fiber yields or its body returns.
     * @pre !finished() and not currently running
     */
    void resume();

    /** True once the body function has returned. */
    bool finished() const { return finished_; }

    /** True while the fiber is the running context. */
    bool running() const { return running_; }

    /**
     * Switch from the running fiber back to its resumer.
     * @pre called from inside a fiber body
     */
    static void yield();

    /** The fiber currently executing, or nullptr in scheduler context. */
    static Fiber *current();

  private:
    [[noreturn]] void run();
    /** Switch from this fiber back to its resumer. */
    void switchOut();

    Body body;
    char *stack = nullptr;   ///< mmap'd; pages map in as they are touched
    std::size_t stackBytes;
#ifdef SWSM_FIBER_X86_64
    [[noreturn]] static void entry();
    void *sp = nullptr;       ///< this fiber's stack pointer while suspended
    void *returnSp = nullptr; ///< the resumer's, while this fiber runs
#else
    static void trampoline(unsigned hi, unsigned lo);
    ucontext_t context;
    ucontext_t returnContext;
#endif
    /**
     * ThreadSanitizer's shadow context for this fiber and for the
     * resumer we switch back to (TSan fiber API). Null in non-TSan
     * builds; without these annotations TSan misreads every stack
     * switch as one thread racing itself.
     */
    void *tsanFiber = nullptr;
    void *tsanReturnFiber = nullptr;
    /**
     * AddressSanitizer's view of the switch: this fiber's fake stack
     * while it is suspended, and the bounds of the resumer's stack.
     * Unused outside ASan builds.
     */
    void *asanFakeStack = nullptr;
    const void *asanReturnBottom = nullptr;
    std::size_t asanReturnSize = 0;
    bool finished_ = false;
    bool running_ = false;
};

} // namespace swsm

#endif // SWSM_FIBER_FIBER_HH
