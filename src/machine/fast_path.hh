/**
 * @file
 * Per-node software TLB for the simulation data path.
 *
 * Every shared access an application makes normally goes through a
 * virtual Protocol::read/write with a page-table lookup before any
 * cycle is charged. Following the Wisconsin Wind Tunnel / Shasta
 * split, the FastPath caches the *resolved* outcome of that lookup —
 * "this address range is directly accessible at these host bytes" —
 * so the common hit case is handled inline by Thread without virtual
 * dispatch. Only host-side lookup work is elided: the latency recipe
 * (chargeSharedAccess, or the bulk Busy + cache-range charges) is
 * invoked exactly as the slow path would, in the same order, so
 * simulated time and all protocol counters are bit-identical with the
 * fast path on or off (tests/test_fastpath.cc enforces this).
 *
 * The table is direct-mapped over the protocol's coherence-unit index
 * (page for HLRC/Ideal, block for SC) and sized by that unit: it covers
 * at least 256 KiB of address space with at least minSlots slots, so
 * 64-byte SC blocks get 4096 slots and 4 KiB pages keep 256. The
 * storage is anonymous mmap'd memory, which reads as zeros until first
 * written, and the all-zero entry is invalid, so slots that a run never
 * touches cost neither set-up time nor resident memory. Protocols
 * install entries on their slow-path hit/fill paths and must
 * invalidate on *every* state transition that could revoke access
 * (invalidate, downgrade, busy directory, ...); a missing install only
 * costs speed, a missing invalidation costs correctness.
 *
 * Header-only and dependent only on sim/types.hh so the protocol
 * layer can include it without linking the machine library.
 */

#ifndef SWSM_MACHINE_FAST_PATH_HH
#define SWSM_MACHINE_FAST_PATH_HH

#include <cstdint>
#include <new>
#include <span>

#include <sys/mman.h>

#include "sim/types.hh"

namespace swsm
{

/** Direct-mapped access-resolution cache for one node. */
class FastPath
{
  public:
    FastPath() = default;
    ~FastPath() { unmapTable(); }
    FastPath(const FastPath &) = delete;
    FastPath &operator=(const FastPath &) = delete;

    /**
     * One resolved mapping: addresses in [base, limit) may be
     * accessed directly at data + (addr - base). An empty range
     * (base >= limit, e.g. the all-zero entry) marks the slot invalid.
     */
    struct Entry
    {
        GlobalAddr base = 0;  ///< inclusive; base >= limit = invalid
        GlobalAddr limit = 0; ///< exclusive
        std::uint8_t *data = nullptr; ///< host bytes backing the range
        /** Per-page dirty-chunk bitmap to mark on writes (HLRC
         *  non-home writable entries), or null. */
        std::uint64_t *dirtyMask = nullptr;
        std::uint32_t chunkShift = 0; ///< log2 of the dirty-chunk size
        bool writable = false;
    };

    /** Fewest slots a configured table has. */
    static constexpr std::size_t minSlots = 256;
    /** Address span the table covers at least (256 KiB). */
    static constexpr std::uint32_t logCoverBytes = 18;

    /** Slot count for a coherence unit of 2^@p index_shift bytes. */
    static constexpr std::size_t
    slotsFor(std::uint32_t index_shift)
    {
        const std::size_t cover =
            index_shift < logCoverBytes
                ? std::size_t{1} << (logCoverBytes - index_shift)
                : 1;
        return cover > minSlots ? cover : minSlots;
    }

    /**
     * Bind the table to a protocol's geometry, allocating a fresh
     * (all-invalid) table of slotsFor(@p index_shift) slots.
     * @param index_shift log2 of the coherence unit (slot index bits)
     * @param copy_first  true if the protocol's slow path copies bytes
     *        before charging (SC, Ideal); false if it charges first
     *        (HLRC). Thread replicates the order exactly.
     */
    void
    configure(std::uint32_t index_shift, bool copy_first)
    {
        const std::size_t n = slotsFor(index_shift);
        // mmap rather than calloc: malloc recycles freed heap memory
        // for large blocks too, and calloc then zeroes (touches) it all.
        void *p = mmap(nullptr, n * sizeof(Entry), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        unmapTable();
        slots_ = static_cast<Entry *>(p);
        mask_ = n - 1;
        indexShift_ = index_shift;
        copyFirst_ = copy_first;
    }

    /** Slots in the table; 1 (an inline slot) until configure(), so
     *  lookups on a table no protocol configured just miss. */
    std::size_t numSlots() const { return mask_ + 1; }

    bool copyFirst() const { return copyFirst_; }
    std::uint32_t indexShift() const { return indexShift_; }

    /**
     * Resolve an access of @p bytes at @p addr. Returns the covering
     * entry on a hit (range covered, and writable if @p write), null
     * on a miss. Counts hits/misses.
     */
    Entry *
    lookup(GlobalAddr addr, std::uint32_t bytes, bool write)
    {
        Entry &e = slots_[slotOf(addr)];
        if (addr >= e.base && addr + bytes <= e.limit &&
            (!write || e.writable)) {
            ++hits_;
            return &e;
        }
        ++misses_;
        return nullptr;
    }

    /**
     * Install a mapping for one coherence unit ([base, limit) must not
     * span slot-index boundaries; it lands in base's slot, evicting
     * whatever was there).
     */
    void
    install(GlobalAddr base, GlobalAddr limit, std::uint8_t *data,
            bool writable, std::uint64_t *dirty_mask = nullptr,
            std::uint32_t chunk_shift = 0)
    {
        Entry &e = slots_[slotOf(base)];
        e.base = base;
        e.limit = limit;
        e.data = data;
        e.dirtyMask = dirty_mask;
        e.chunkShift = chunk_shift;
        e.writable = writable;
        ++installs_;
    }

    /**
     * Install one mapping covering the whole space into every slot
     * (Ideal: the home store is one contiguous always-valid buffer, so
     * any address hits from its own slot and bulk ranges resolve as a
     * single run).
     */
    void
    installGlobal(GlobalAddr base, GlobalAddr limit, std::uint8_t *data,
                  bool writable)
    {
        for (Entry &e : slots()) {
            e.base = base;
            e.limit = limit;
            e.data = data;
            e.dirtyMask = nullptr;
            e.chunkShift = 0;
            e.writable = writable;
        }
        ++installs_;
    }

    /**
     * Drop every entry overlapping [base, limit). install() places an
     * entry in its own unit's slot, so only the slots of the units the
     * range covers are visited (every slot once if it covers more
     * units than the table has slots). An installGlobal() entry is
     * dropped from those slots only.
     */
    void
    invalidateRange(GlobalAddr base, GlobalAddr limit)
    {
        if (limit <= base)
            return;
        const GlobalAddr first = base >> indexShift_;
        const GlobalAddr units = ((limit - 1) >> indexShift_) - first + 1;
        const std::size_t visit =
            units <= mask_ ? static_cast<std::size_t>(units) : mask_ + 1;
        for (std::size_t i = 0; i < visit; ++i) {
            Entry &e = slots_[(first + i) & mask_];
            if (e.base < limit && base < e.limit)
                reset(e);
        }
    }

    /**
     * Bit mask of the dirty chunks an access of @p bytes at entry
     * offset @p off touches (bytes <= chunk size, so at most two).
     */
    static std::uint64_t
    dirtyBits(std::uint64_t off, std::uint64_t bytes,
              std::uint32_t chunk_shift)
    {
        const std::uint64_t first = off >> chunk_shift;
        const std::uint64_t last = (off + bytes - 1) >> chunk_shift;
        return (~std::uint64_t{0} >> (63 - (last - first))) << first;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t installs() const { return installs_; }
    std::uint64_t invalidations() const { return invalidations_; }

  private:
    void
    unmapTable()
    {
        if (slots_ != &inline_)
            munmap(slots_, (mask_ + 1) * sizeof(Entry));
    }

    std::span<Entry> slots() { return {slots_, mask_ + 1}; }

    std::size_t
    slotOf(GlobalAddr addr) const
    {
        return (addr >> indexShift_) & mask_;
    }

    /** Invalidate @p e; an already-invalid slot is left unwritten so
     *  never-touched table pages stay unmapped. */
    void
    reset(Entry &e)
    {
        if (e.base >= e.limit)
            return;
        ++invalidations_;
        e = Entry{};
    }

    Entry inline_{};              ///< the whole table until configure()
    Entry *slots_ = &inline_;     ///< or configure()'s mapping
    std::size_t mask_ = 0;        ///< slot count - 1
    std::uint32_t indexShift_ = 12;
    bool copyFirst_ = false;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t installs_ = 0;
    std::uint64_t invalidations_ = 0;
};

} // namespace swsm

#endif // SWSM_MACHINE_FAST_PATH_HH
