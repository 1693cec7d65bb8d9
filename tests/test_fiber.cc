/**
 * @file
 * Unit tests for the cooperative fiber runtime.
 */

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fiber/fiber.hh"

#if defined(__x86_64__)
#include <xmmintrin.h>
#endif

namespace swsm
{
namespace
{

TEST(Fiber, RunsBodyToCompletion)
{
    bool ran = false;
    Fiber f([&] { ran = true; });
    EXPECT_FALSE(f.finished());
    f.resume();
    EXPECT_TRUE(ran);
    EXPECT_TRUE(f.finished());
}

TEST(Fiber, YieldSuspendsAndResumes)
{
    std::vector<int> order;
    Fiber f([&] {
        order.push_back(1);
        Fiber::yield();
        order.push_back(3);
    });
    f.resume();
    order.push_back(2);
    f.resume();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(f.finished());
}

TEST(Fiber, ManyYields)
{
    int count = 0;
    Fiber f([&] {
        for (int i = 0; i < 100; ++i) {
            ++count;
            Fiber::yield();
        }
    });
    for (int i = 0; i < 100; ++i)
        f.resume();
    EXPECT_EQ(count, 100);
    EXPECT_FALSE(f.finished());
    f.resume(); // body loop exits
    EXPECT_TRUE(f.finished());
}

TEST(Fiber, CurrentTracksRunningFiber)
{
    EXPECT_EQ(Fiber::current(), nullptr);
    Fiber *seen = nullptr;
    Fiber f([&] { seen = Fiber::current(); });
    f.resume();
    EXPECT_EQ(seen, &f);
    EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, NestedFibers)
{
    std::vector<int> order;
    Fiber inner([&] {
        order.push_back(2);
        Fiber::yield();
        order.push_back(4);
    });
    Fiber outer([&] {
        order.push_back(1);
        inner.resume();
        order.push_back(3);
        inner.resume();
        order.push_back(5);
    });
    outer.resume();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
    EXPECT_TRUE(inner.finished());
    EXPECT_TRUE(outer.finished());
}

TEST(Fiber, DeepStackUsage)
{
    // Recursion exercising a healthy chunk of the default stack.
    std::function<int(int)> rec = [&](int d) -> int {
        volatile char pad[512];
        pad[0] = static_cast<char>(d);
        return d == 0 ? pad[0] : rec(d - 1) + 1;
    };
    int result = -1;
    Fiber f([&] { result = rec(200); });
    f.resume();
    EXPECT_EQ(result, 200);
}

TEST(Fiber, ResumeFinishedPanics)
{
    Fiber f([] {});
    f.resume();
    EXPECT_DEATH(f.resume(), "finished");
}

TEST(Fiber, YieldOutsideFiberPanics)
{
    EXPECT_DEATH(Fiber::yield(), "outside");
}

TEST(Fiber, InterleavedPairCooperates)
{
    std::vector<int> order;
    Fiber a([&] {
        for (int i = 0; i < 3; ++i) {
            order.push_back(10 + i);
            Fiber::yield();
        }
    });
    Fiber b([&] {
        for (int i = 0; i < 3; ++i) {
            order.push_back(20 + i);
            Fiber::yield();
        }
    });
    for (int i = 0; i < 3; ++i) {
        a.resume();
        b.resume();
    }
    EXPECT_EQ(order, (std::vector<int>{10, 20, 11, 21, 12, 22}));
}

#if defined(__x86_64__)
std::uint32_t
mxcsrRounding()
{
    return _mm_getcsr() & 0x6000u;
}

std::uint16_t
x87Control()
{
    std::uint16_t cw;
    asm volatile("fnstcw %0" : "=m"(cw));
    return cw;
}

void
setX87Control(std::uint16_t cw)
{
    asm volatile("fldcw %0" : : "m"(cw));
}
#endif

TEST(Fiber, EachFiberKeepsItsFloatingPointControlState)
{
    // Rounding mode (MXCSR and x87) and x87 precision are per-context:
    // each fiber sets its own and must find it again after every
    // switch, while the resumer's stays untouched.
    const int home = std::fegetround();
#if defined(__x86_64__)
    const std::uint16_t home_cw = x87Control();
    const std::uint32_t home_mx = mxcsrRounding();
#endif
    auto body = [](int mode, std::uint16_t precision, int &failures) {
        return [mode, precision, &failures] {
            std::fesetround(mode);
#if defined(__x86_64__)
            setX87Control(
                static_cast<std::uint16_t>((x87Control() & ~0x300) |
                                           precision));
            const std::uint32_t mx = mxcsrRounding();
            const std::uint16_t cw = x87Control();
#endif
            for (int i = 0; i < 20; ++i) {
                Fiber::yield();
                if (std::fegetround() != mode)
                    ++failures;
#if defined(__x86_64__)
                if (mxcsrRounding() != mx || x87Control() != cw)
                    ++failures;
#endif
            }
        };
    };
    int fa = 0, fb = 0;
    Fiber a(body(FE_UPWARD, 0x000, fa));    // 24-bit precision
    Fiber b(body(FE_TOWARDZERO, 0x200, fb)); // 53-bit precision
    int home_failures = 0;
    while (!a.finished() || !b.finished()) {
        if (!a.finished())
            a.resume();
        if (std::fegetround() != home)
            ++home_failures;
        if (!b.finished())
            b.resume();
#if defined(__x86_64__)
        if (x87Control() != home_cw || mxcsrRounding() != home_mx)
            ++home_failures;
#endif
    }
    EXPECT_EQ(fa, 0);
    EXPECT_EQ(fb, 0);
    EXPECT_EQ(home_failures, 0);
    EXPECT_EQ(std::fegetround(), home);
}

TEST(Fiber, ExceptionCaughtInsideBodySurvivesYield)
{
    std::string first, rethrown;
    Fiber f([&] {
        try {
            Fiber::yield();
            throw std::runtime_error("inside");
        } catch (const std::runtime_error &e) {
            first = e.what();
            // Suspend with the exception still being handled; the
            // resumer throws and catches its own meanwhile.
            Fiber::yield();
            try {
                throw;
            } catch (const std::runtime_error &again) {
                rethrown = again.what();
            }
        }
    });
    f.resume();
    f.resume();
    EXPECT_EQ(first, "inside");
    try {
        throw std::logic_error("outside");
    } catch (const std::logic_error &e) {
        EXPECT_STREQ(e.what(), "outside");
    }
    f.resume();
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(rethrown, "inside");
}

/** Out of line so the checks see a real call frame on the fiber
 *  stack rather than one the optimizer realigned. */
[[gnu::noinline]] bool
stackAligned()
{
    alignas(16) volatile std::uint64_t sixteen[2] = {1, 2};
    alignas(32) volatile std::uint64_t thirtytwo[4] = {1, 2, 3, 4};
    const auto a16 = reinterpret_cast<std::uintptr_t>(&sixteen[0]);
    const auto a32 = reinterpret_cast<std::uintptr_t>(&thirtytwo[0]);
    const auto frame =
        reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
    return a16 % 16 == 0 && a32 % 32 == 0 && frame % 16 == 0 &&
           sixteen[0] + thirtytwo[3] == 5;
}

TEST(Fiber, StackIsAbiAlignedOnEntry)
{
    // A 16-byte-aligned frame is what the SysV ABI promises a callee;
    // SSE spills of alignas(16) locals fault without it. Check on the
    // very first entry and again after a switch.
    bool first = false, later = false;
    for (std::size_t stack : {std::size_t{64 * 1024},
                              std::size_t{64 * 1024 + 8},
                              std::size_t{64 * 1024 + 4}}) {
        Fiber f(
            [&] {
                first = stackAligned();
                Fiber::yield();
                later = stackAligned();
            },
            stack);
        f.resume();
        f.resume();
        EXPECT_TRUE(first) << stack;
        EXPECT_TRUE(later) << stack;
    }
}

/** Recurse @p depth frames, yielding at every level on the way down
 *  and checking each frame's local on the way up. */
int
recurseAndYield(int id, int depth)
{
    volatile int local[16];
    for (int i = 0; i < 16; ++i)
        local[i] = id * 1000 + depth + i;
    Fiber::yield();
    const int below = depth == 0 ? 0 : recurseAndYield(id, depth - 1);
    int ok = 1;
    for (int i = 0; i < 16; ++i)
        ok &= local[i] == id * 1000 + depth + i;
    return below + ok;
}

TEST(Fiber, SixteenInterleavedDeepFibers)
{
    constexpr int fibers = 16;
    constexpr int depth = 300;
    std::vector<int> result(fibers, -1);
    std::vector<std::unique_ptr<Fiber>> fs;
    for (int id = 0; id < fibers; ++id) {
        fs.push_back(std::make_unique<Fiber>(
            [id, &result] { result[id] = recurseAndYield(id, depth); }));
    }
    // Round-robin, in a different rotation each round.
    bool any = true;
    for (int round = 0; any; ++round) {
        any = false;
        for (int k = 0; k < fibers; ++k) {
            Fiber &f = *fs[(k + round) % fibers];
            if (!f.finished()) {
                f.resume();
                any = true;
            }
        }
    }
    for (int id = 0; id < fibers; ++id)
        EXPECT_EQ(result[id], depth + 1) << "fiber " << id;
}

} // namespace
} // namespace swsm
