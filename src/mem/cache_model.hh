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
 * Host layout: each set's ways keep {tag, stamp} side by side, and the
 * array is 64-byte aligned, so with a power-of-two associativity a set
 * of up to four ways sits in one host cache line. A repeat of the
 * previous access's line is answered without a tag walk: that line is
 * already its L1 set's most recent way, so refreshing its stamp could
 * not change any LRU decision, and the hit is counted without touching
 * the arrays.
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
    /** One way of a set: tag 0 means empty (tags are line+1). */
    struct Way
    {
        std::uint64_t tag = 0;
        std::uint64_t stamp = 0; ///< LRU stamp of the last touch
    };

    /** One tag array level. */
    struct Level
    {
        std::uint64_t setMask = 0;
        std::uint32_t assoc = 0;
        /** ways[set * assoc + way], 64-byte aligned. */
        std::vector<Way, AlignedAlloc<Way, 64>> ways;

        void init(std::uint32_t bytes, std::uint32_t assoc_,
                  std::uint32_t line_bytes);

        /** @return true on hit; inserts on miss. */
        bool lookupInsert(std::uint64_t line, std::uint64_t stamp);
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
    std::uint64_t stamp = 0;
    /** Line of the previous access, or noLine. */
    std::uint64_t lastLine = noLine;

    Counter l1Hits_;
    Counter l1Misses_;
    Counter l2Hits_;
    Counter l2Misses_;
};

} // namespace swsm

#endif // SWSM_MEM_CACHE_MODEL_HH
