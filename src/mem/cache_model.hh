/**
 * @file
 * Two-level set-associative cache timing model for one node.
 *
 * The model answers one question per access: how many stall cycles beyond
 * the 1-IPC issue cycle does this reference cost? It tracks tags with LRU
 * replacement in an 8 KB L1 and a 256 KB L2 (PentiumPro-like) and is also
 * used to model the cache pollution caused by protocol twin/diff
 * operations, which the paper simulates explicitly.
 *
 * Simplifications (documented in DESIGN.md): write-allocate with no extra
 * dirty-writeback penalty; no MSHR-level concurrency (the modeled
 * processor is in-order single-issue, so misses serialize anyway).
 *
 * Host layout: each set keeps only its tags, most recently used first,
 * and the array is 64-byte aligned, so with a power-of-two
 * associativity a set of up to eight ways sits in one host cache line.
 * A hit at way k rotates ways [0, k]; a miss shifts the set right and
 * inserts at way 0, dropping the LRU tag (or an empty one) off the
 * tail. This is exactly stamp-based LRU: a stamp model evicts the
 * minimum stamp, and empty or invalidated ways carry stamp 0, so they
 * fill before any valid line is evicted, and which empty way fills
 * never changes a later outcome. A repeat of the previous access's line
 * is answered without a tag walk: that line is already way 0 of its L1
 * set, so the rotation would be a no-op, and the hit is counted without
 * touching the arrays.
 */

#ifndef SWSM_MEM_CACHE_MODEL_HH
#define SWSM_MEM_CACHE_MODEL_HH

#include <cstdint>
#include <vector>

#include "mem/aligned.hh"
#include "mem/memory_params.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace swsm
{

/** Per-node two-level cache with LRU tag arrays. */
class CacheModel
{
  public:
    explicit CacheModel(const MemoryParams &params);

    /**
     * Simulate one reference to @p addr.
     * @return stall cycles beyond the issue cycle (0 on an L1 hit).
     */
    Cycles
    access(GlobalAddr addr, bool write)
    {
        (void)write; // Allocate-on-write; no extra write penalty modeled.
        return accessLine(addr >> lineShift);
    }

    /**
     * Simulate a sequential walk over [addr, addr+bytes), one reference
     * per cache line; used for bulk copies and twin/diff pollution.
     * @return total stall cycles.
     */
    Cycles accessRange(GlobalAddr addr, std::uint64_t bytes, bool write);

    /**
     * Discard any cached lines in [addr, addr+bytes); used when a page or
     * block copy is replaced by fresh remote data deposited by the NI.
     */
    void invalidateRange(GlobalAddr addr, std::uint64_t bytes);

    /** Drop all cached lines (used between timed phases by the harness). */
    void reset();

    const Counter &l1Hits() const { return l1Hits_; }
    const Counter &l1Misses() const { return l1Misses_; }
    const Counter &l2Hits() const { return l2Hits_; }
    const Counter &l2Misses() const { return l2Misses_; }

  private:
    /** One tag array level; tag 0 means empty (tags are line+1). */
    struct Level
    {
        std::uint64_t setMask = 0;
        std::uint32_t assoc = 0;
        /**
         * tags[set * assoc + way], each set in MRU order with empty
         * ways at its tail; 64-byte aligned.
         */
        std::vector<std::uint64_t, AlignedAlloc<std::uint64_t, 64>> tags;

        void init(std::uint32_t bytes, std::uint32_t assoc_,
                  std::uint32_t line_bytes);

        /** @return true on hit; inserts on miss. */
        bool lookupInsert(std::uint64_t line);
        void invalidate(std::uint64_t line);
        void clear();
    };

    /** No line: the same-line shortcut is off. */
    static constexpr std::uint64_t noLine = ~std::uint64_t{0};

    Cycles
    accessLine(std::uint64_t line)
    {
        if (line == lastLine) {
            l1Hits_.inc();
            return 0;
        }
        return lookupLine(line);
    }

    /** The full two-level lookup; records @p line as the last one. */
    Cycles lookupLine(std::uint64_t line);

    MemoryParams params;
    std::uint32_t lineShift = 0;
    Level l1;
    Level l2;
    /** Line of the previous access, or noLine. */
    std::uint64_t lastLine = noLine;

    Counter l1Hits_;
    Counter l1Misses_;
    Counter l2Hits_;
    Counter l2Misses_;
};

} // namespace swsm

#endif // SWSM_MEM_CACHE_MODEL_HH
