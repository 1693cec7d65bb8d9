/**
 * @file
 * Fast-path correctness: the per-thread access TLB, the page-buffer
 * pool and the chunked diff scan, plus the property the whole overhaul
 * hangs on — a simulation runs bit-identically with the fast path on
 * and off (same cycles, same protocol and network counters), across
 * protocols and geometries.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "machine/cluster.hh"
#include "machine/fast_path.hh"
#include "machine/shared_array.hh"
#include "machine/thread.hh"
#include "proto/hlrc/diff.hh"
#include "proto/page_buffer_pool.hh"
#include "sim/log.hh"

namespace swsm
{
namespace
{

// ------------------------------------------------------------ FastPath

TEST(FastPath, MissesUntilInstalledThenHits)
{
    FastPath fp;
    fp.configure(12, false);
    std::uint8_t page[4096] = {};
    EXPECT_EQ(fp.lookup(0x1000, 4, false), nullptr);
    fp.install(0x1000, 0x2000, page, false);
    FastPath::Entry *e = fp.lookup(0x1000, 4, false);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->data, page);
    EXPECT_EQ(fp.hits(), 1u);
    EXPECT_EQ(fp.misses(), 1u);
    EXPECT_EQ(fp.installs(), 1u);
}

TEST(FastPath, WritableGatingAndLimits)
{
    FastPath fp;
    fp.configure(12, false);
    std::uint8_t page[4096] = {};
    fp.install(0x1000, 0x2000, page, false);
    // Read anywhere in range, but never write through a read-only
    // entry, and never let an access cross the entry's limit.
    EXPECT_NE(fp.lookup(0x1ffc, 4, false), nullptr);
    EXPECT_EQ(fp.lookup(0x1000, 4, true), nullptr);
    EXPECT_EQ(fp.lookup(0x1ffe, 4, false), nullptr);
    EXPECT_EQ(fp.lookup(0x0fff, 4, false), nullptr);
    fp.install(0x1000, 0x2000, page, true);
    EXPECT_NE(fp.lookup(0x1000, 4, true), nullptr);
}

TEST(FastPath, SlotCollisionEvicts)
{
    FastPath fp;
    fp.configure(12, false);
    std::uint8_t a[4096] = {}, b[4096] = {};
    // Pages 0 and numSlots() map to the same direct-mapped slot.
    const GlobalAddr second = fp.numSlots() * GlobalAddr{4096};
    fp.install(0, 4096, a, false);
    fp.install(second, second + 4096, b, false);
    EXPECT_EQ(fp.lookup(0, 4, false), nullptr);
    EXPECT_NE(fp.lookup(second, 4, false), nullptr);
}

TEST(FastPath, TableSizedByCoherenceUnit)
{
    // At least 256 KiB of address space, and never fewer than 256
    // slots: 64-byte SC blocks get 4096, 4 KiB pages keep 256.
    FastPath blocks, pages, small;
    blocks.configure(6, true);
    pages.configure(12, false);
    small.configure(5, true);
    EXPECT_EQ(blocks.numSlots(), 4096u);
    EXPECT_EQ(pages.numSlots(), 256u);
    EXPECT_EQ(small.numSlots(), 8192u);
    EXPECT_EQ(FastPath::slotsFor(10), 256u);
    EXPECT_EQ(FastPath::slotsFor(20), 256u);

    // Addresses 256 KiB apart collide; nearer distinct blocks do not.
    std::uint8_t x[64] = {}, y[64] = {}, z[64] = {};
    blocks.install(0, 64, x, false);
    blocks.install(255 * 1024, 255 * 1024 + 64, y, false);
    EXPECT_NE(blocks.lookup(0, 4, false), nullptr);
    EXPECT_NE(blocks.lookup(255 * 1024, 4, false), nullptr);
    blocks.install(256 * 1024, 256 * 1024 + 64, z, false);
    EXPECT_EQ(blocks.lookup(0, 4, false), nullptr);
}

TEST(FastPath, AllZeroEntriesMiss)
{
    // A fresh table is all zero bytes: base = limit = 0 is an empty
    // range, so every address misses, address 0 included, and
    // invalidating untouched slots counts nothing.
    FastPath fp;
    fp.configure(6, true);
    for (GlobalAddr a : {GlobalAddr{0}, GlobalAddr{1}, GlobalAddr{63},
                         GlobalAddr{4096}, GlobalAddr{1} << 40}) {
        EXPECT_EQ(fp.lookup(a, 1, false), nullptr) << a;
        EXPECT_EQ(fp.lookup(a, 8, true), nullptr) << a;
    }
    EXPECT_EQ(fp.hits(), 0u);
    fp.invalidateRange(0, GlobalAddr{1} << 30);
    EXPECT_EQ(fp.invalidations(), 0u);

    // So does a table no protocol configured.
    FastPath unconfigured;
    EXPECT_EQ(unconfigured.numSlots(), 1u);
    EXPECT_EQ(unconfigured.lookup(0, 4, false), nullptr);
    EXPECT_EQ(unconfigured.misses(), 1u);
}

TEST(FastPath, MultiUnitInvalidationDropsExactlyCoveredEntries)
{
    FastPath fp;
    fp.configure(6, true);
    std::vector<std::uint8_t> mem(64 * 64);
    // Blocks 0..63 installed; drop blocks 10..19 via a range that
    // starts and ends mid-block.
    for (GlobalAddr b = 0; b < 64; ++b)
        fp.install(b * 64, b * 64 + 64, mem.data() + b * 64, true);
    fp.invalidateRange(10 * 64 + 5, 19 * 64 + 1);
    EXPECT_EQ(fp.invalidations(), 10u);
    for (GlobalAddr b = 0; b < 64; ++b) {
        const bool dropped = b >= 10 && b <= 19;
        EXPECT_EQ(fp.lookup(b * 64, 4, false) == nullptr, dropped) << b;
    }

    // A range wider than the table visits each slot once and drops
    // every entry it overlaps, wherever the walk starts.
    fp.invalidateRange(3 * 64, 3 * 64 + 2 * 4096 * 64);
    EXPECT_EQ(fp.invalidations(), 10u + 51u);
    EXPECT_NE(fp.lookup(0, 4, false), nullptr);
    EXPECT_NE(fp.lookup(2 * 64, 4, false), nullptr);
    EXPECT_EQ(fp.lookup(3 * 64, 4, false), nullptr);
}

TEST(FastPath, InvalidateRangeDropsOverlappingEntries)
{
    FastPath fp;
    fp.configure(12, false);
    std::uint8_t a[4096] = {}, b[4096] = {};
    fp.install(0x1000, 0x2000, a, false);
    fp.install(0x3000, 0x4000, b, false);
    fp.invalidateRange(0x1000, 0x2000);
    EXPECT_EQ(fp.lookup(0x1000, 4, false), nullptr);
    EXPECT_NE(fp.lookup(0x3000, 4, false), nullptr);
    EXPECT_EQ(fp.invalidations(), 1u);
}

TEST(FastPath, GlobalEntryCoversEverySlot)
{
    FastPath fp;
    fp.configure(12, true);
    std::vector<std::uint8_t> store(1 << 21);
    fp.installGlobal(0, store.size(), store.data(), true);
    // Addresses in pages that map to different slots all hit, and a
    // range lookup sees the full extent as one chunk.
    FastPath::Entry *e = fp.lookup(123 * 4096 + 5, 1, true);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->base, 0u);
    EXPECT_EQ(e->limit, store.size());
    EXPECT_NE(fp.lookup(500 * 4096, 8, false), nullptr);
}

TEST(FastPath, DirtyBitsMarksExactChunkSpan)
{
    // 64-byte chunks (shift 6): a 4-byte write in chunk 2 marks only
    // bit 2; a write straddling chunks 1..3 marks bits 1, 2 and 3.
    EXPECT_EQ(FastPath::dirtyBits(130, 4, 6), std::uint64_t{1} << 2);
    EXPECT_EQ(FastPath::dirtyBits(64, 129, 6), std::uint64_t{0b1110});
    EXPECT_EQ(FastPath::dirtyBits(0, 1, 6), std::uint64_t{1});
    // Whole-page write marks all 64 chunks.
    EXPECT_EQ(FastPath::dirtyBits(0, 4096, 6), ~std::uint64_t{0});
}

TEST(FastPath, WritesThroughEntryFeedTheDirtyMask)
{
    FastPath fp;
    fp.configure(12, false);
    std::uint8_t page[4096] = {};
    std::uint64_t mask = 0;
    fp.install(0x1000, 0x2000, page, true, &mask, 6);
    FastPath::Entry *e = fp.lookup(0x1000 + 200, 4, true);
    ASSERT_NE(e, nullptr);
    ASSERT_EQ(e->dirtyMask, &mask);
    *e->dirtyMask |= FastPath::dirtyBits(200, 4, e->chunkShift);
    EXPECT_EQ(mask, std::uint64_t{1} << 3);
}

// ----------------------------------------------------- PageBufferPool

TEST(PageBufferPool, ReusesReleasedPageBuffers)
{
    PageBufferPool pool;
    PageBufferPool::Bytes b = pool.acquirePage();
    b.resize(4096);
    const std::uint8_t *heap = b.data();
    pool.releasePage(std::move(b));
    EXPECT_EQ(pool.freePages(), 1u);
    PageBufferPool::Bytes b2 = pool.acquirePage();
    EXPECT_TRUE(b2.empty());
    EXPECT_GE(b2.capacity(), 4096u);
    b2.resize(4096);
    EXPECT_EQ(b2.data(), heap); // same heap buffer came back
    EXPECT_EQ(pool.pageAllocs(), 1u);
    EXPECT_EQ(pool.pageReuses(), 1u);
}

TEST(PageBufferPool, ReusesReleasedWordVectors)
{
    PageBufferPool pool;
    PageBufferPool::DiffWords w = pool.acquireWords();
    w.emplace_back(1, 2);
    pool.releaseWords(std::move(w));
    PageBufferPool::DiffWords w2 = pool.acquireWords();
    EXPECT_TRUE(w2.empty());
    EXPECT_GE(w2.capacity(), 1u);
    EXPECT_EQ(pool.wordAllocs(), 1u);
    EXPECT_EQ(pool.wordReuses(), 1u);
    EXPECT_EQ(pool.freeWordVectors(), 0u);
}

// ------------------------------------------------------- Diff kernels

TEST(DiffScan, ChunkedMatchesFullScanOnRandomPages)
{
    const std::uint32_t page_bytes = 4096;
    const std::uint32_t shift = hlrcdiff::chunkShift(page_bytes);
    ASSERT_EQ(shift, 6u);
    std::vector<std::uint8_t> twin(page_bytes), cur(page_bytes);
    std::uint64_t lcg = 88172645463325252ULL;
    auto next = [&lcg] {
        lcg ^= lcg << 13;
        lcg ^= lcg >> 7;
        lcg ^= lcg << 17;
        return lcg;
    };
    for (int trial = 0; trial < 50; ++trial) {
        for (auto &byte : twin)
            byte = static_cast<std::uint8_t>(next());
        cur = twin;
        // Flip a few words; mark exactly the chunks they fall in.
        std::uint64_t dirty = 0;
        const int flips = static_cast<int>(next() % 20);
        for (int f = 0; f < flips; ++f) {
            const std::uint32_t off =
                static_cast<std::uint32_t>(next() % (page_bytes / 4)) * 4;
            cur[off] ^= 0xff;
            dirty |= FastPath::dirtyBits(off, 4, shift);
        }
        hlrcdiff::DiffWords full, chunked;
        hlrcdiff::scanFull(cur.data(), twin.data(), page_bytes, full);
        hlrcdiff::scanChunks(cur.data(), twin.data(), page_bytes, shift,
                             dirty, chunked);
        EXPECT_EQ(full, chunked) << "trial " << trial;
        EXPECT_TRUE(hlrcdiff::cleanChunksMatch(
            cur.data(), twin.data(), page_bytes, shift, dirty));
    }
}

TEST(DiffScan, SmallPageUsesMinimumChunk)
{
    // 256-byte page: shift clamps to 3 (8-byte chunks, 32 of them).
    const std::uint32_t page_bytes = 256;
    const std::uint32_t shift = hlrcdiff::chunkShift(page_bytes);
    EXPECT_EQ(shift, 3u);
    std::vector<std::uint8_t> twin(page_bytes, 0), cur(page_bytes, 0);
    cur[page_bytes - 4] = 1;
    hlrcdiff::DiffWords full, chunked;
    hlrcdiff::scanFull(cur.data(), twin.data(), page_bytes, full);
    hlrcdiff::scanChunks(cur.data(), twin.data(), page_bytes, shift,
                         FastPath::dirtyBits(page_bytes - 4, 4, shift),
                         chunked);
    EXPECT_EQ(full, chunked);
    ASSERT_EQ(full.size(), 1u);
    EXPECT_EQ(full[0].first, (page_bytes - 4) / 4);
}

// ------------------------------------------------- On/off equivalence

/** Everything a run produces that the fast path must not change. */
struct RunResult
{
    Cycles total = 0;
    std::vector<Cycles> finish;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/** A kernel sets up shared state on the cluster, then returns the
 *  SPMD body. */
using Kernel =
    std::function<std::function<void(Thread &)>(Cluster &)>;

RunResult
runKernel(ProtocolKind kind, bool fast_path, std::uint32_t page_bytes,
          std::uint32_t block_bytes, const Kernel &kernel)
{
    MachineParams mp;
    mp.numProcs = 4;
    mp.protocol = kind;
    mp.pageBytes = page_bytes;
    mp.blockBytes = block_bytes;
    mp.fastPath = fast_path;
    Cluster c(mp);
    auto body = kernel(c);
    c.run(body);

    RunResult r;
    r.total = c.stats().totalCycles;
    r.finish = c.stats().finishTimes;
    for (const auto &[name, value] : c.stats().metrics.counters) {
        // machine.fastpath_* and mem.simd_* are the legitimate
        // differences: host-side telemetry of the access fast path and
        // the SIMD diff/twin kernels (the chunk-skipping scan visits
        // fewer bytes than the full sweep).
        if (name.rfind("machine.fastpath_", 0) == 0 ||
            name.rfind("mem.simd_", 0) == 0)
            continue;
        r.counters.emplace_back(name, value);
    }
    return r;
}

void
expectEquivalent(ProtocolKind kind, std::uint32_t page_bytes,
                 std::uint32_t block_bytes, const Kernel &kernel)
{
    const RunResult on =
        runKernel(kind, true, page_bytes, block_bytes, kernel);
    const RunResult off =
        runKernel(kind, false, page_bytes, block_bytes, kernel);
    EXPECT_EQ(on.total, off.total);
    EXPECT_EQ(on.finish, off.finish);
    ASSERT_EQ(on.counters.size(), off.counters.size());
    for (std::size_t i = 0; i < on.counters.size(); ++i) {
        EXPECT_EQ(on.counters[i], off.counters[i])
            << "counter " << on.counters[i].first;
    }
}

/** Lock-serialized read-modify-writes plus private slots: exercises
 *  single-reference hits, twins, diffs and notice invalidations. */
Kernel
lockCounterKernel()
{
    return [](Cluster &c) {
        const LockId lock = c.allocLock();
        const BarrierId bar = c.allocBarrier();
        auto a = std::make_shared<SharedArray<std::uint32_t>>(
            SharedArray<std::uint32_t>::homedAt(c, 64, 0));
        for (int i = 0; i < 64; ++i)
            a->init(c, i, 0);
        return [lock, bar, a](Thread &t) {
            for (int round = 0; round < 4; ++round) {
                t.acquire(lock);
                a->put(t, 0, a->get(t, 0) + 1);
                a->put(t, 1 + t.id(), a->get(t, 1 + t.id()) + 3);
                t.release(lock);
                t.compute(57);
            }
            t.barrier(bar);
            std::uint32_t sum = 0;
            for (int i = 0; i < 64; ++i)
                sum += a->get(t, i);
            if (sum != 4u * t.nprocs() + 12u * t.nprocs())
                SWSM_PANIC("lock counter kernel read %u", sum);
            t.barrier(bar);
        };
    };
}

/** Barrier epochs of falsely-shared writes: exercises early flushes,
 *  multi-writer diffs and repeated twin create/discard cycles. */
Kernel
falseSharingKernel()
{
    return [](Cluster &c) {
        const BarrierId bar = c.allocBarrier();
        auto a = std::make_shared<SharedArray<std::uint64_t>>(
            SharedArray<std::uint64_t>::homedAt(c, 128, 1));
        for (int i = 0; i < 128; ++i)
            a->init(c, i, 0);
        return [bar, a](Thread &t) {
            for (int epoch = 1; epoch <= 3; ++epoch) {
                for (int j = 0; j < 8; ++j)
                    a->put(t, t.id() * 8 + j,
                           static_cast<std::uint64_t>(epoch * 100 +
                                                      t.id() * 8 + j));
                t.barrier(bar);
                std::uint64_t sum = 0;
                for (int i = 0; i < 8 * t.nprocs(); ++i)
                    sum += a->get(t, i);
                (void)sum;
                t.barrier(bar);
            }
        };
    };
}

/** Unaligned bulk copies crossing page and block boundaries:
 *  exercises the range fast path and its slow-path handoff. */
Kernel
bulkRangeKernel()
{
    return [](Cluster &c) {
        const BarrierId bar = c.allocBarrier();
        auto a = std::make_shared<SharedArray<std::uint8_t>>(
            SharedArray<std::uint8_t>::homedAt(c, 3 * 4096, 0));
        for (int i = 0; i < 3 * 4096; ++i)
            a->init(c, i, static_cast<std::uint8_t>(i));
        return [bar, a](Thread &t) {
            std::vector<std::uint8_t> buf(2500);
            const GlobalAddr base = a->base() + 17 + t.id() * 2600;
            t.readBytes(base, buf.data(), buf.size());
            for (auto &byte : buf)
                byte = static_cast<std::uint8_t>(byte + 1 + t.id());
            t.barrier(bar);
            if (t.id() == 0)
                t.writeBytes(a->base() + 100, buf.data(), buf.size());
            t.barrier(bar);
            std::vector<std::uint8_t> check(300);
            t.readBytes(a->base() + 4000, check.data(), check.size());
            t.barrier(bar);
        };
    };
}

struct Geometry
{
    std::uint32_t pageBytes;
    std::uint32_t blockBytes;
};

const Geometry geometries[] = {{4096, 64}, {1024, 32}};

TEST(FastPathEquivalence, HlrcBitIdenticalOnOff)
{
    for (const Geometry &g : geometries) {
        expectEquivalent(ProtocolKind::Hlrc, g.pageBytes, g.blockBytes,
                         lockCounterKernel());
        expectEquivalent(ProtocolKind::Hlrc, g.pageBytes, g.blockBytes,
                         falseSharingKernel());
        expectEquivalent(ProtocolKind::Hlrc, g.pageBytes, g.blockBytes,
                         bulkRangeKernel());
    }
}

TEST(FastPathEquivalence, ScBitIdenticalOnOff)
{
    for (const Geometry &g : geometries) {
        expectEquivalent(ProtocolKind::Sc, g.pageBytes, g.blockBytes,
                         lockCounterKernel());
        expectEquivalent(ProtocolKind::Sc, g.pageBytes, g.blockBytes,
                         falseSharingKernel());
        expectEquivalent(ProtocolKind::Sc, g.pageBytes, g.blockBytes,
                         bulkRangeKernel());
    }
}

TEST(FastPathEquivalence, IdealBitIdenticalOnOff)
{
    for (const Geometry &g : geometries) {
        expectEquivalent(ProtocolKind::Ideal, g.pageBytes, g.blockBytes,
                         lockCounterKernel());
        expectEquivalent(ProtocolKind::Ideal, g.pageBytes, g.blockBytes,
                         falseSharingKernel());
        expectEquivalent(ProtocolKind::Ideal, g.pageBytes, g.blockBytes,
                         bulkRangeKernel());
    }
}

TEST(FastPathEquivalence, ScWithAccessCheckCostStaysEquivalent)
{
    // A nonzero access-check charge disables SC installs entirely;
    // the fast path must still be a no-op, not a divergence.
    auto run = [](bool fast_path) {
        MachineParams mp;
        mp.numProcs = 4;
        mp.protocol = ProtocolKind::Sc;
        mp.accessCheckCycles = 3;
        mp.fastPath = fast_path;
        Cluster c(mp);
        auto body = lockCounterKernel()(c);
        c.run(body);
        return c.stats().totalCycles;
    };
    EXPECT_EQ(run(true), run(false));
}

// ----------------------------------------- Diff exactness across epochs

TEST(FastPathDiff, SingleWordWritesProduceSingleWordDiffs)
{
    // Across several lock epochs, each non-home write interval must
    // diff exactly the words written — proving the dirty-chunk bitmap
    // is cleared with the twin and never under- or over-reports.
    MachineParams mp;
    mp.numProcs = 2;
    mp.protocol = ProtocolKind::Hlrc;
    Cluster c(mp);
    const LockId lock = c.allocLock();
    const BarrierId bar = c.allocBarrier();
    SharedArray<std::uint32_t> a =
        SharedArray<std::uint32_t>::homedAt(c, 1024, 0);
    for (int i = 0; i < 1024; ++i)
        a.init(c, i, 0);
    c.run([&](Thread &t) {
        if (t.id() == 1) {
            for (int epoch = 0; epoch < 5; ++epoch) {
                t.acquire(lock);
                a.put(t, 100 * epoch,
                      static_cast<std::uint32_t>(1000 + epoch));
                t.release(lock);
            }
        }
        t.barrier(bar);
    });
    const ProtoStats &s = c.protocol().stats();
    EXPECT_EQ(s.diffsCreated.value(), 5u);
    EXPECT_EQ(s.diffWordsWritten.value(), 5u);
    EXPECT_EQ(s.twinsCreated.value(), 5u);
    for (int epoch = 0; epoch < 5; ++epoch)
        EXPECT_EQ(a.peek(c, 100 * epoch), 1000u + epoch);
}

} // namespace
} // namespace swsm
