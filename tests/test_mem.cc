/**
 * @file
 * Unit tests for the two-level cache timing model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mem/cache_model.hh"
#include "sim/log.hh"
#include "sim/rng.hh"

namespace swsm
{
namespace
{

MemoryParams
smallParams()
{
    MemoryParams p;
    p.l1Bytes = 1024;  // 16 sets x 2 ways x 32 B
    p.l1Assoc = 2;
    p.lineBytes = 32;
    p.l2Bytes = 8192;  // 64 sets x 4 ways
    p.l2Assoc = 4;
    p.l2HitCycles = 10;
    p.memCycles = 60;
    return p;
}

TEST(CacheModel, ColdMissThenHit)
{
    CacheModel c(smallParams());
    EXPECT_EQ(c.access(0x1000, false), 60u); // cold: memory
    EXPECT_EQ(c.access(0x1000, false), 0u);  // L1 hit
    EXPECT_EQ(c.access(0x1008, false), 0u);  // same line
}

TEST(CacheModel, L2HitAfterL1Eviction)
{
    const MemoryParams p = smallParams();
    CacheModel c(p);
    // Fill one L1 set with 3 distinct lines mapping to it (assoc 2).
    const std::uint64_t set_stride = p.l1Bytes / p.l1Assoc; // 512
    c.access(0, false);
    c.access(set_stride, false);
    c.access(2 * set_stride, false); // evicts line 0 from L1
    EXPECT_EQ(c.access(0, false), p.l2HitCycles); // still in L2
}

TEST(CacheModel, LruKeepsRecentlyUsed)
{
    const MemoryParams p = smallParams();
    CacheModel c(p);
    const std::uint64_t s = p.l1Bytes / p.l1Assoc;
    c.access(0, false);
    c.access(s, false);
    c.access(0, false);      // refresh line 0
    c.access(2 * s, false);  // should evict line s, not 0
    EXPECT_EQ(c.access(0, false), 0u);
    EXPECT_NE(c.access(s, false), 0u);
}

TEST(CacheModel, AccessRangeWalksLines)
{
    const MemoryParams p = smallParams();
    CacheModel c(p);
    const Cycles cold = c.accessRange(0, 256, false); // 8 lines
    EXPECT_EQ(cold, 8 * p.memCycles);
    EXPECT_EQ(c.accessRange(0, 256, false), 0u); // all hits now
}

TEST(CacheModel, AccessRangeZeroBytes)
{
    CacheModel c(smallParams());
    EXPECT_EQ(c.accessRange(100, 0, false), 0u);
}

TEST(CacheModel, InvalidateRangeForcesMisses)
{
    const MemoryParams p = smallParams();
    CacheModel c(p);
    c.accessRange(0, 128, false);
    EXPECT_EQ(c.accessRange(0, 128, false), 0u);
    c.invalidateRange(0, 128);
    EXPECT_EQ(c.accessRange(0, 128, false), 4 * p.memCycles);
}

TEST(CacheModel, ResetDropsEverything)
{
    const MemoryParams p = smallParams();
    CacheModel c(p);
    c.access(0, false);
    c.reset();
    EXPECT_EQ(c.access(0, false), p.memCycles);
}

TEST(CacheModel, StatsCountHitsAndMisses)
{
    CacheModel c(smallParams());
    c.access(0, false);
    c.access(0, false);
    c.access(0, true);
    EXPECT_EQ(c.l1Misses().value(), 1u);
    EXPECT_EQ(c.l1Hits().value(), 2u);
    EXPECT_EQ(c.l2Misses().value(), 1u);
}

TEST(CacheModel, CapacityEvictionToMemory)
{
    const MemoryParams p = smallParams();
    CacheModel c(p);
    // Touch far more distinct lines than L2 capacity, then re-touch the
    // first: must be a full memory miss again.
    const std::uint64_t lines = (p.l2Bytes / p.lineBytes) * 4;
    for (std::uint64_t i = 0; i < lines; ++i)
        c.access(i * p.lineBytes, false);
    EXPECT_EQ(c.access(0, false), p.memCycles);
}

TEST(CacheModel, RejectsNonPowerOfTwoGeometry)
{
    MemoryParams p = smallParams();
    p.lineBytes = 48;
    EXPECT_THROW(CacheModel c(p), FatalError);
}

TEST(CacheModel, StreamFitsInL2ButNotL1)
{
    const MemoryParams p = smallParams();
    CacheModel c(p);
    // A 4 KB stream (128 lines) fits in the 8 KB L2 but not the 1 KB
    // L1; a sequential re-walk therefore hits L2 on every line (the L1
    // working set is always the 32 most recent lines, which the walk
    // itself keeps evicting ahead of reuse).
    c.accessRange(0, 4096, true);
    EXPECT_EQ(c.accessRange(0, 4096, false), 128 * p.l2HitCycles);
}

/**
 * Fill one L1 set of a cache with @p l1_assoc ways, invalidate the line
 * at MRU position @p pos (0 = most recent), then miss with a fresh line
 * mapping to the same set: the miss must fill the hole, so every other
 * line still hits L1 and only the invalidated one goes to memory. With
 * @p hit_first the surviving lines are touched (and must hit) between
 * the invalidation and the miss.
 */
void
expectMissFillsInvalidatedWay(std::uint32_t l1_assoc, std::uint32_t pos,
                              bool hit_first)
{
    MemoryParams p = smallParams();
    p.l1Assoc = l1_assoc;
    CacheModel c(p);
    const std::uint64_t stride = p.l1Bytes / p.l1Assoc; // same L1 set
    for (std::uint32_t w = 0; w < l1_assoc; ++w)
        ASSERT_EQ(c.access(w * stride, false), p.memCycles);
    // Filled in order, so way w sits at MRU position assoc-1-w.
    const std::uint64_t gone = (l1_assoc - 1 - pos) * stride;
    c.invalidateRange(gone, p.lineBytes);
    auto expect_survivors_hit = [&] {
        for (std::uint32_t w = 0; w < l1_assoc; ++w) {
            if (w * stride == gone)
                continue;
            EXPECT_EQ(c.access(w * stride, false), 0u)
                << "way " << w << " assoc " << l1_assoc << " pos " << pos;
        }
    };
    if (hit_first)
        expect_survivors_hit();
    const std::uint64_t fresh = l1_assoc * stride;
    EXPECT_EQ(c.access(fresh, false), p.memCycles);
    const std::uint64_t l1_misses = c.l1Misses().value();
    expect_survivors_hit();
    EXPECT_EQ(c.access(fresh, true), 0u);
    EXPECT_EQ(c.l1Misses().value(), l1_misses);
    // The invalidated line left both levels.
    EXPECT_EQ(c.access(gone, false), p.memCycles);
}

TEST(CacheModel, MissFillsAnInvalidatedMruWay)
{
    for (bool hit_first : {false, true}) {
        for (std::uint32_t assoc : {1u, 2u, 8u})
            expectMissFillsInvalidatedWay(assoc, 0, hit_first);
    }
}

TEST(CacheModel, MissFillsAnInvalidatedMiddleOrLruWay)
{
    for (bool hit_first : {false, true}) {
        expectMissFillsInvalidatedWay(2, 1, hit_first);
        for (std::uint32_t pos : {1u, 3u, 4u, 7u})
            expectMissFillsInvalidatedWay(8, pos, hit_first);
    }
}

TEST(CacheModel, InvalidatingAnAbsentLineKeepsTheSet)
{
    MemoryParams p = smallParams();
    p.l1Assoc = 8;
    CacheModel c(p);
    const std::uint64_t stride = p.l1Bytes / p.l1Assoc;
    for (std::uint32_t w = 0; w < 8; ++w)
        c.access(w * stride, false);
    c.invalidateRange(8 * stride, p.lineBytes); // same set, not cached
    for (std::uint32_t w = 0; w < 8; ++w)
        EXPECT_EQ(c.access(w * stride, false), 0u) << "way " << w;
}

// ------------------------------------------------------ Oracle model

/**
 * The original CacheModel, kept verbatim as the reference: a 64-bit
 * divide per access, separate tag and stamp arrays, and a stamp bump
 * on every access. The production model must return the same stall
 * for every access and end with the same four counters.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const MemoryParams &params) : params(params)
    {
        l1.init(params.l1Bytes, params.l1Assoc, params.lineBytes);
        l2.init(params.l2Bytes, params.l2Assoc, params.lineBytes);
    }

    Cycles
    access(GlobalAddr addr, bool write)
    {
        (void)write;
        const std::uint64_t line = addr / params.lineBytes;
        ++stamp;
        if (l1.lookupInsert(line, stamp)) {
            l1Hits.inc();
            return 0;
        }
        l1Misses.inc();
        if (l2.lookupInsert(line, stamp)) {
            l2Hits.inc();
            return params.l2HitCycles;
        }
        l2Misses.inc();
        return params.memCycles;
    }

    Cycles
    accessRange(GlobalAddr addr, std::uint64_t bytes, bool write)
    {
        if (bytes == 0)
            return 0;
        Cycles total = 0;
        const std::uint64_t first = addr / params.lineBytes;
        const std::uint64_t last = (addr + bytes - 1) / params.lineBytes;
        for (std::uint64_t line = first; line <= last; ++line)
            total += access(line * params.lineBytes, write);
        return total;
    }

    void
    invalidateRange(GlobalAddr addr, std::uint64_t bytes)
    {
        if (bytes == 0)
            return;
        const std::uint64_t first = addr / params.lineBytes;
        const std::uint64_t last = (addr + bytes - 1) / params.lineBytes;
        for (std::uint64_t line = first; line <= last; ++line) {
            l1.invalidate(line);
            l2.invalidate(line);
        }
    }

    void
    reset()
    {
        l1.clear();
        l2.clear();
    }

    Counter l1Hits, l1Misses, l2Hits, l2Misses;

  private:
    struct Level
    {
        std::uint32_t numSets = 0;
        std::uint32_t assoc = 0;
        std::vector<std::uint64_t> tags;
        std::vector<std::uint64_t> stamps;

        void
        init(std::uint32_t bytes, std::uint32_t assoc_,
             std::uint32_t line_bytes)
        {
            assoc = assoc_;
            numSets = bytes / (line_bytes * assoc_);
            tags.assign(static_cast<std::size_t>(numSets) * assoc, 0);
            stamps.assign(static_cast<std::size_t>(numSets) * assoc, 0);
        }

        bool
        lookupInsert(std::uint64_t line, std::uint64_t stamp)
        {
            const std::uint64_t tag = line + 1;
            const std::size_t base =
                static_cast<std::size_t>(line & (numSets - 1)) * assoc;
            std::size_t victim = base;
            for (std::size_t way = base; way < base + assoc; ++way) {
                if (tags[way] == tag) {
                    stamps[way] = stamp;
                    return true;
                }
                if (stamps[way] < stamps[victim])
                    victim = way;
            }
            tags[victim] = tag;
            stamps[victim] = stamp;
            return false;
        }

        void
        invalidate(std::uint64_t line)
        {
            const std::uint64_t tag = line + 1;
            const std::size_t base =
                static_cast<std::size_t>(line & (numSets - 1)) * assoc;
            for (std::size_t way = base; way < base + assoc; ++way) {
                if (tags[way] == tag) {
                    tags[way] = 0;
                    stamps[way] = 0;
                }
            }
        }

        void
        clear()
        {
            std::fill(tags.begin(), tags.end(), 0);
            std::fill(stamps.begin(), stamps.end(), 0);
        }
    };

    MemoryParams params;
    Level l1;
    Level l2;
    std::uint64_t stamp = 0;
};

/**
 * Drive both models with one seeded stream mixing same-line repeats,
 * strides, random lines, range walks, invalidations and resets, and
 * require identical stalls and counters throughout.
 */
void
expectMatchesReference(const MemoryParams &p, std::uint64_t seed,
                       int steps)
{
    CacheModel model(p);
    ReferenceCache ref(p);
    Rng rng(seed);
    // A footprint of 4x L2 keeps all three outcomes common.
    const std::uint64_t span = 4ull * p.l2Bytes;
    GlobalAddr cursor = 0;
    for (int i = 0; i < steps; ++i) {
        const std::uint64_t pick = rng.nextBounded(100);
        const bool write = rng.nextBounded(2) == 1;
        Cycles got = 0, want = 0;
        if (pick < 30) {
            // Same line again (or a neighbouring byte of it).
            cursor += rng.nextBounded(p.lineBytes / 2 + 1);
            got = model.access(cursor, write);
            want = ref.access(cursor, write);
        } else if (pick < 55) {
            // Strided walk: word, line, set and L1-way strides.
            static const std::uint64_t strides[] = {8, 32, 64, 512,
                                                    4096, 8192};
            cursor = (cursor + strides[rng.nextBounded(6)]) % span;
            got = model.access(cursor, write);
            want = ref.access(cursor, write);
        } else if (pick < 80) {
            cursor = rng.nextBounded(span);
            got = model.access(cursor, write);
            want = ref.access(cursor, write);
        } else if (pick < 92) {
            const GlobalAddr a = rng.nextBounded(span);
            const std::uint64_t bytes = rng.nextBounded(3 * 4096);
            got = model.accessRange(a, bytes, write);
            want = ref.accessRange(a, bytes, write);
            cursor = a;
        } else if (pick < 99) {
            // Often the line just touched, so the repeat shortcut must
            // notice the invalidation.
            const GlobalAddr a =
                rng.nextBounded(2) ? cursor : rng.nextBounded(span);
            const std::uint64_t bytes = rng.nextBounded(2 * 4096);
            model.invalidateRange(a, bytes);
            ref.invalidateRange(a, bytes);
        } else {
            model.reset();
            ref.reset();
        }
        ASSERT_EQ(got, want) << "step " << i << " seed " << seed;
    }
    EXPECT_EQ(model.l1Hits().value(), ref.l1Hits.value());
    EXPECT_EQ(model.l1Misses().value(), ref.l1Misses.value());
    EXPECT_EQ(model.l2Hits().value(), ref.l2Hits.value());
    EXPECT_EQ(model.l2Misses().value(), ref.l2Misses.value());
    // The stream must exercise every outcome to mean anything.
    EXPECT_GT(ref.l1Hits.value(), 0u);
    EXPECT_GT(ref.l2Hits.value(), 0u);
    EXPECT_GT(ref.l2Misses.value(), 0u);
}

TEST(CacheModelOracle, MatchesReferenceOnDefaultGeometry)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        expectMatchesReference(MemoryParams{}, seed, 200000);
}

TEST(CacheModelOracle, MatchesReferenceOnSmallGeometries)
{
    MemoryParams direct = smallParams();
    direct.l1Assoc = 1; // direct-mapped L1
    direct.l2Assoc = 8; // two host lines per L2 set
    for (std::uint64_t seed = 11; seed <= 13; ++seed) {
        expectMatchesReference(smallParams(), seed, 100000);
        expectMatchesReference(direct, seed, 100000);
    }
}

TEST(CacheModelOracle, RepeatedLineDoesNotDisturbLru)
{
    // Line 0 repeated many times between two conflicting lines must
    // still be the most recent way, exactly as in the reference.
    const MemoryParams p = smallParams();
    CacheModel c(p);
    const std::uint64_t s = p.l1Bytes / p.l1Assoc;
    c.access(s, false);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(c.access(0, i & 1), i == 0 ? p.memCycles : Cycles{0});
    c.access(2 * s, false); // evicts s, the LRU way
    EXPECT_EQ(c.access(0, false), 0u);
    EXPECT_EQ(c.access(s, false), p.l2HitCycles);
    EXPECT_EQ(c.l1Hits().value(), 10u);
}

} // namespace
} // namespace swsm
