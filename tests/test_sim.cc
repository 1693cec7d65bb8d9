/**
 * @file
 * Unit tests for the discrete-event kernel, RNG and statistics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace swsm
{
namespace
{

TEST(EventQueue, StartsEmptyAtTimeZero)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.schedule(2, [&] {
            ++fired;
            eq.scheduleAfter(3, [&] { ++fired; });
        });
    });
    eq.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [&] {
        EXPECT_DEATH(eq.schedule(5, [] {}), "past");
    });
    eq.run();
}

TEST(EventQueue, RunWithLimitStops)
{
    EventQueue eq;
    for (int i = 0; i < 10; ++i)
        eq.schedule(i, [] {});
    EXPECT_EQ(eq.run(4u), 4u);
    EXPECT_EQ(eq.pending(), 6u);
}

TEST(EventQueue, NowAdvancesMonotonically)
{
    EventQueue eq;
    Cycles last = 0;
    for (int i = 0; i < 100; ++i)
        eq.schedule(static_cast<Cycles>((i * 37) % 50), [&, i] {
            EXPECT_GE(eq.now(), last);
            last = eq.now();
        });
    eq.run();
}

TEST(EventFn, SupportsMoveOnlyCallables)
{
    // std::function cannot hold this; EventFn must.
    auto box = std::make_unique<int>(42);
    int seen = 0;
    EventFn fn([b = std::move(box), &seen] { seen = *b; });
    EXPECT_TRUE(static_cast<bool>(fn));
    fn();
    EXPECT_EQ(seen, 42);
}

TEST(EventFn, MoveTransfersOwnership)
{
    int calls = 0;
    EventFn a([&calls] { ++calls; });
    EventFn b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(calls, 1);

    EventFn c;
    c = std::move(b);
    EXPECT_FALSE(static_cast<bool>(b));
    c();
    EXPECT_EQ(calls, 2);
}

TEST(EventFn, LargeCapturesFallBackToHeap)
{
    // A capture well past inlineBytes must still work (heap fallback)
    // and destroy its state exactly once.
    struct Big
    {
        unsigned char pad[2 * EventFn::inlineBytes] = {};
        std::shared_ptr<int> counter;
    };
    static_assert(sizeof(Big) > EventFn::inlineBytes);

    auto counter = std::make_shared<int>(0);
    {
        Big big;
        big.counter = counter;
        big.pad[0] = 7;
        EventFn fn([big] { *big.counter += big.pad[0]; });
        EXPECT_EQ(counter.use_count(), 3); // local, Big copy in lambda
        EventFn moved(std::move(fn));
        moved();
    }
    EXPECT_EQ(*counter, 7);
    EXPECT_EQ(counter.use_count(), 1); // lambda state destroyed
}

TEST(EventFn, InlineCapturesDoNotLeak)
{
    auto counter = std::make_shared<int>(0);
    {
        EventFn fn([counter] { ++*counter; });
        EXPECT_EQ(counter.use_count(), 2);
        EventFn moved(std::move(fn));
        EXPECT_EQ(counter.use_count(), 2); // relocated, not copied
        moved();
    }
    EXPECT_EQ(*counter, 1);
    EXPECT_EQ(counter.use_count(), 1);
}

TEST(EventQueue, AcceptsMoveOnlyCallbacks)
{
    EventQueue eq;
    auto payload = std::make_unique<int>(9);
    int got = 0;
    eq.schedule(1, [p = std::move(payload), &got] { got = *p; });
    eq.run();
    EXPECT_EQ(got, 9);
}

TEST(EventQueue, ReserveDoesNotDisturbOrdering)
{
    EventQueue eq;
    eq.reserve(1024);
    std::vector<int> order;
    for (int i = 0; i < 64; ++i)
        eq.schedule(static_cast<Cycles>((i * 37) % 17),
                    [&order, i] { order.push_back(i); });
    eq.run();
    std::vector<int> expect;
    for (int i = 0; i < 64; ++i)
        expect.push_back(i);
    std::stable_sort(expect.begin(), expect.end(), [](int a, int b) {
        return (a * 37) % 17 < (b * 37) % 17;
    });
    EXPECT_EQ(order, expect);
}

// ---------------------------------------------------------------------
// EventHeap: pop order against an independent reference, and closure
// lifetimes across the key heap and its callback slab.
// ---------------------------------------------------------------------

/** Reference kernel: a std::map keyed by (when, stamp), stamps made by
 *  the documented (scheduling slot << 48) | per-slot sequence rule. */
class RefQueue
{
  public:
    explicit RefQueue(std::uint32_t slots) : seq_(slots, 0) {}

    Cycles now() const { return now_; }
    std::uint32_t currentSlot() const { return cur_; }

    void
    schedule(Cycles when, std::function<void()> fn)
    {
        scheduleTo(cur_, when, std::move(fn));
    }

    void
    scheduleTo(std::uint32_t slot, Cycles when, std::function<void()> fn)
    {
        const std::uint64_t stamp =
            (static_cast<std::uint64_t>(cur_) << 48) | seq_[cur_]++;
        pending_.emplace(std::make_pair(when, stamp),
                         std::make_pair(slot, std::move(fn)));
    }

    void
    run()
    {
        while (!pending_.empty()) {
            auto it = pending_.begin();
            now_ = it->first.first;
            cur_ = it->second.first;
            std::function<void()> fn = std::move(it->second.second);
            pending_.erase(it);
            fn();
        }
    }

  private:
    std::map<std::pair<Cycles, std::uint64_t>,
             std::pair<std::uint32_t, std::function<void()>>>
        pending_;
    std::vector<std::uint64_t> seq_;
    Cycles now_ = 0;
    std::uint32_t cur_ = 0;
};

struct Fired
{
    std::uint64_t id;
    Cycles when;
    std::uint32_t slot;

    bool
    operator==(const Fired &o) const
    {
        return id == o.id && when == o.when && slot == o.slot;
    }
};

/**
 * A seeded random event program: every event, when it fires, records
 * itself and schedules 0-3 children whose shape is a function of the
 * seed and its id alone — same-cycle or near-future times (many ties),
 * schedule or scheduleTo a random slot, and closures of 24, 72
 * (EventFn's inline limit) or 80 bytes (heap fallback). Captured words
 * are checked on entry, so a closure corrupted in the slab fails.
 */
template <typename Queue>
class RandomProgram
{
  public:
    RandomProgram(Queue &q, std::uint64_t seed, std::uint32_t slots,
                  std::uint64_t budget)
        : q_(q), seed_(seed), slots_(slots), budget_(budget)
    {}

    void
    seed(int roots)
    {
        Rng rng(seed_);
        for (int i = 0; i < roots; ++i)
            spawn(rng, rng.nextBounded(16));
    }

    std::vector<Fired> fired;

  private:
    void
    spawn(Rng &rng, Cycles when)
    {
        const std::uint64_t id = nextId_++;
        const bool to = rng.nextBounded(2) == 0;
        const auto slot = static_cast<std::uint32_t>(rng.nextBounded(slots_));
        switch (rng.nextBounded(3)) {
          case 0:
            add<1>(id, to, slot, when);
            break;
          case 1:
            add<7>(id, to, slot, when);
            break;
          default:
            add<8>(id, to, slot, when);
            break;
        }
    }

    template <std::size_t N>
    void
    add(std::uint64_t id, bool to, std::uint32_t slot, Cycles when)
    {
        std::array<std::uint64_t, N> words;
        for (std::size_t i = 0; i < N; ++i)
            words[i] = id * 131 + i;
        auto cb = [this, id, words] {
            for (std::size_t i = 0; i < N; ++i)
                ASSERT_EQ(words[i], id * 131 + i);
            fire(id);
        };
        static_assert(N > 7 ? sizeof(cb) > EventFn::inlineBytes
                            : sizeof(cb) <= EventFn::inlineBytes);
        if (to)
            q_.scheduleTo(slot, when, std::move(cb));
        else
            q_.schedule(when, std::move(cb));
    }

    void
    fire(std::uint64_t id)
    {
        fired.push_back(Fired{id, q_.now(), q_.currentSlot()});
        Rng rng(seed_ * 1000003 + id);
        const std::uint64_t children = rng.nextBounded(4);
        for (std::uint64_t c = 0; c < children && nextId_ < budget_; ++c)
            spawn(rng, q_.now() + rng.nextBounded(4));
    }

    Queue &q_;
    const std::uint64_t seed_;
    const std::uint32_t slots_;
    const std::uint64_t budget_;
    std::uint64_t nextId_ = 0;
};

TEST(EventHeap, RandomProgramsPopInReferenceOrder)
{
    constexpr std::uint32_t slots = 5;
    constexpr std::uint64_t budget = 6000;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        EventQueue eq;
        eq.setNumSlots(slots);
        RandomProgram<EventQueue> got(eq, seed, slots, budget);
        got.seed(300);
        eq.run();

        RefQueue ref(slots);
        RandomProgram<RefQueue> want(ref, seed, slots, budget);
        want.seed(300);
        ref.run();

        ASSERT_EQ(got.fired.size(), want.fired.size()) << "seed " << seed;
        EXPECT_TRUE(got.fired == want.fired) << "seed " << seed;
        EXPECT_EQ(eq.eventsRun(), got.fired.size());
        EXPECT_EQ(eq.eventsScheduled(), got.fired.size());
        EXPECT_GT(eq.maxPending(), 200u) << "seed " << seed;
    }
}

TEST(EventHeap, CallbackThatRegrowsTheSlabKeepsItsOwnState)
{
    // The callback schedules 20 000 events, so the slab reallocates
    // several times while the callback is still running; its captures
    // must survive (it was moved out of the slab first).
    EventQueue eq;
    auto token = std::make_shared<int>(0);
    std::array<std::uint64_t, 6> words{1, 2, 3, 4, 5, 6};
    std::vector<std::uint64_t> order;
    constexpr std::uint64_t burst = 20000;
    eq.schedule(5, [&eq, &order, token, words] {
        for (std::uint64_t i = 0; i < burst; ++i) {
            eq.schedule(10 + (i * 7919) % 97,
                        [&order, token, i] { order.push_back(i); });
        }
        EXPECT_EQ(words[5], 6u);
        EXPECT_EQ(*token, 0);
        EXPECT_EQ(token.use_count(), static_cast<long>(burst) + 2);
    });
    eq.run();
    ASSERT_EQ(order.size(), burst);
    EXPECT_TRUE(std::is_sorted(
        order.begin(), order.end(), [](std::uint64_t a, std::uint64_t b) {
            const Cycles ta = (a * 7919) % 97, tb = (b * 7919) % 97;
            return ta != tb ? ta < tb : a < b;
        }));
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventHeap, EveryClosureIsDestroyedExactlyOnce)
{
    auto token = std::make_shared<int>(0);
    std::array<unsigned char, 2 * EventFn::inlineBytes> big{};
    {
        EventQueue eq;
        for (int i = 0; i < 300; ++i) {
            if (i % 3 == 0)
                eq.schedule(i % 11, [token, big] { *token += big[0] + 1; });
            else
                eq.schedule(i % 11, [token] { ++*token; });
        }
        EXPECT_EQ(token.use_count(), 301);
        // Run part of the queue: fired closures are gone at once.
        EXPECT_EQ(eq.run(120), 120u);
        EXPECT_EQ(token.use_count(), 301 - 120);
        EXPECT_EQ(*token, 120);
    }
    // ~EventQueue destroyed the 180 still pending, once each.
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(*token, 120);
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(7), b(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(7), b(8);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next64() == b.next64();
    EXPECT_LT(same, 3);
}

TEST(Rng, BoundedStaysInBounds)
{
    Rng r(1);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.nextBounded(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(2);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(3);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double v = r.nextDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Stats, CounterAccumulates)
{
    Counter c;
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, AccumulatorTracksMoments)
{
    Accumulator a;
    a.sample(1.0);
    a.sample(3.0);
    a.sample(2.0);
    EXPECT_DOUBLE_EQ(a.sum(), 6.0);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 3.0);
    EXPECT_EQ(a.count(), 3u);
}

TEST(Stats, EmptyAccumulatorIsZero)
{
    Accumulator a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 0.0);
}

TEST(Stats, HistogramBucketsPowerOfTwo)
{
    Histogram h(8);
    h.sample(0);
    h.sample(1);
    h.sample(2);
    h.sample(3);
    h.sample(100);
    EXPECT_EQ(h.totalSamples(), 5u);
    EXPECT_EQ(h.bucketCount(0), 1u); // 0
    EXPECT_EQ(h.bucketCount(1), 1u); // 1
    EXPECT_EQ(h.bucketCount(2), 2u); // 2..3
}

TEST(Stats, HistogramBucketMatchesLinearScan)
{
    // The bucket rule the O(1) bit-width lookup must reproduce.
    const auto scan = [](std::uint64_t v, unsigned n) {
        unsigned bucket = 0;
        while (bucket + 1 < n && v >= (1ULL << bucket))
            ++bucket;
        return bucket;
    };
    std::vector<std::uint64_t> values{0, 1, UINT64_MAX};
    for (unsigned k = 1; k < 64; ++k) {
        const std::uint64_t p = 1ULL << k;
        values.insert(values.end(), {p - 1, p, p + 1});
    }
    for (const unsigned n : {1u, 2u, 8u, 32u, 64u}) {
        for (const std::uint64_t v : values) {
            Histogram h(n);
            h.sample(v);
            const unsigned want = scan(v, n);
            EXPECT_EQ(h.bucketCount(want), 1u)
                << "value " << v << " with " << n << " buckets";
        }
    }
}

TEST(Stats, GroupDumpContainsEntries)
{
    Counter c;
    c.inc(5);
    Accumulator a;
    a.sample(2.0);
    StatGroup g("net");
    g.addCounter("msgs", &c);
    g.addAccumulator("delay", &a);
    std::ostringstream os;
    g.dump(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("net.msgs 5"), std::string::npos);
    EXPECT_NE(s.find("net.delay.mean 2"), std::string::npos);
}

TEST(TimeBuckets, NamesAndProtoClassification)
{
    EXPECT_STREQ(timeBucketName(TimeBucket::Busy), "busy");
    EXPECT_STREQ(timeBucketName(TimeBucket::ProtoDiff), "proto_diff");
    EXPECT_FALSE(isProtoBucket(TimeBucket::Busy));
    EXPECT_FALSE(isProtoBucket(TimeBucket::BarrierWait));
    EXPECT_TRUE(isProtoBucket(TimeBucket::ProtoHandler));
    EXPECT_TRUE(isProtoBucket(TimeBucket::ProtoOther));
}

} // namespace
} // namespace swsm
