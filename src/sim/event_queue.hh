/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue drives one simulated cluster. Events are callbacks
 * scheduled at absolute cycle times; ties are broken deterministically by
 * a (slot, per-slot sequence) stamp so that simulations are
 * bit-reproducible — and, crucially, so that the tie order does not
 * depend on how the event set is partitioned across worker threads (see
 * sim/pdes.hh).
 *
 * The kernel schedules millions of events per run, so the callback type
 * is a small-buffer EventFn rather than std::function: every callback the
 * simulator itself creates fits in the inline storage and scheduling one
 * costs no heap allocation. Pending events live in an EventHeap: the
 * heap orders 24-byte trivially copyable keys, and the callbacks sit
 * still in a slab beside it, so a heap sift never moves a closure (see
 * EventHeap).
 *
 * Slots and execution contexts: every event belongs to a slot (in the
 * machine layer, the node whose state it touches). schedule() inherits
 * the slot of the event currently executing; scheduleTo() targets an
 * explicit slot and is the only way an event crosses slots. Each slot
 * carries its own monotonically increasing sequence counter, and an
 * event's tie-break stamp is (scheduling slot << 48) | per-slot seq.
 * Because slot s's events always execute in the same relative order, the
 * stamps — and therefore the global (when, stamp) execution order — are
 * identical whether the queue runs serially or partitioned.
 *
 * An EventQueue is confined to one thread in serial mode. In parallel
 * mode a PdesEngine temporarily takes over scheduling (see sim/pdes.hh);
 * the queue itself remains externally unsynchronized, and the parallel
 * sweep engine gives each concurrent simulation its own queue.
 */

#ifndef SWSM_SIM_EVENT_QUEUE_HH
#define SWSM_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace swsm
{

class MetricsRegistry;
class PdesEngine;

/**
 * Move-only callback with inline storage for the event hot path.
 *
 * Callables up to inlineBytes are stored in place; larger ones fall
 * back to a single heap allocation. inlineBytes is sized to hold the
 * kernel's largest hot-path lambda, the network's local-dispatch
 * closure, at 72 bytes — net/network.cc static_asserts that it still
 * fits. Unlike std::function it supports move-only callables, so
 * completion callbacks can be moved — not copied — into the queue.
 */
class EventFn
{
  public:
    static constexpr std::size_t inlineBytes = 72;

    EventFn() noexcept : ops(nullptr) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventFn> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    EventFn(F &&f) // NOLINT: implicit by design, mirrors std::function
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(store)) Fn(std::forward<F>(f));
            ops = &inlineOps<Fn>;
        } else {
            *reinterpret_cast<Fn **>(store) = new Fn(std::forward<F>(f));
            ops = &heapOps<Fn>;
        }
    }

    EventFn(EventFn &&other) noexcept : ops(other.ops)
    {
        if (ops)
            ops->relocate(other.store, store);
        other.ops = nullptr;
    }

    EventFn &
    operator=(EventFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            ops = other.ops;
            if (ops)
                ops->relocate(other.store, store);
            other.ops = nullptr;
        }
        return *this;
    }

    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;

    ~EventFn() { reset(); }

    explicit operator bool() const noexcept { return ops != nullptr; }

    void
    operator()()
    {
        ops->invoke(store);
    }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        /** Move-construct dst from src and destroy src. */
        void (*relocate)(void *src, void *dst);
        void (*destroy)(void *);
    };

    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= inlineBytes &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

    template <typename Fn>
    static constexpr Ops inlineOps = {
        [](void *p) { (*static_cast<Fn *>(p))(); },
        [](void *src, void *dst) {
            auto *f = static_cast<Fn *>(src);
            ::new (dst) Fn(std::move(*f));
            f->~Fn();
        },
        [](void *p) { static_cast<Fn *>(p)->~Fn(); },
    };

    template <typename Fn>
    static constexpr Ops heapOps = {
        [](void *p) { (**static_cast<Fn **>(p))(); },
        [](void *src, void *dst) {
            *static_cast<Fn **>(dst) = *static_cast<Fn **>(src);
        },
        [](void *p) { delete *static_cast<Fn **>(p); },
    };

    void
    reset() noexcept
    {
        if (ops) {
            ops->destroy(store);
            ops = nullptr;
        }
    }

    const Ops *ops;
    alignas(std::max_align_t) unsigned char store[inlineBytes];
};

/**
 * Binary min-heap of pending events ordered by (when, stamp).
 *
 * The heap itself holds only trivially copyable 24-byte Keys; each
 * event's callback sits in a slab slot (recycled through a free list)
 * that its key names. A sift therefore copies keys, never closures: a
 * callback moves into the slab once at push() and out once at pop(),
 * however deep the heap. pop() moves the callback out before the
 * caller invokes it, because a running callback may push events and
 * regrow the slab under its own feet.
 *
 * (when, stamp) is a strict total order — stamps are unique — so the
 * pop order is a function of the pushed set alone, independent of the
 * heap's layout or the order the events were pushed in.
 * The serial queue and every parallel partition share this type.
 */
class EventHeap
{
  public:
    struct Key
    {
        Cycles when;
        /** (scheduling slot << 48) | per-slot sequence; unique. */
        std::uint64_t stamp;
        /** Slab slot holding the callback. */
        std::uint32_t fn;
        /** Slot whose context the event executes in. */
        std::uint32_t execSlot;
    };
    static_assert(sizeof(Key) == 24 && std::is_trivially_copyable_v<Key>);

    /** A popped event: its time, execution slot and callback. */
    struct Popped
    {
        Cycles when;
        std::uint32_t execSlot;
        EventFn fn;
    };

    bool empty() const { return keys_.empty(); }
    std::size_t size() const { return keys_.size(); }

    /** Pre-size the key and slab storage for @p events pending events. */
    void
    reserve(std::size_t events)
    {
        keys_.reserve(events);
        fns_.reserve(events);
        free_.reserve(events);
    }

    /** Earliest pending event. @pre !empty() */
    const Key &top() const { return keys_.front(); }

    void
    push(Cycles when, std::uint64_t stamp, std::uint32_t exec_slot,
         EventFn &&fn)
    {
        std::uint32_t idx;
        if (free_.empty()) {
            idx = static_cast<std::uint32_t>(fns_.size());
            fns_.push_back(std::move(fn));
        } else {
            idx = free_.back();
            free_.pop_back();
            fns_[idx] = std::move(fn);
        }
        keys_.push_back(Key{when, stamp, idx, exec_slot});
        siftUp(keys_.size() - 1);
    }

    /** Remove the earliest event and hand back its callback. @pre !empty() */
    Popped
    pop()
    {
        const Key k = keys_.front();
        const Key last = keys_.back();
        keys_.pop_back();
        if (!keys_.empty())
            siftDown(last);
        free_.push_back(k.fn);
        return Popped{k.when, k.execSlot, std::move(fns_[k.fn])};
    }

    /**
     * Move every pending event, in no particular order, into
     * @p sink(when, stamp, exec_slot, EventFn &&) and leave the heap
     * empty. Used to hand events between heaps; the receiving heaps
     * re-establish order on push.
     */
    template <typename Sink>
    void
    drainTo(Sink &&sink)
    {
        for (const Key &k : keys_)
            sink(k.when, k.stamp, k.execSlot, std::move(fns_[k.fn]));
        keys_.clear();
        fns_.clear();
        free_.clear();
    }

  private:
    static bool
    before(const Key &a, const Key &b)
    {
        return a.when < b.when || (a.when == b.when && a.stamp < b.stamp);
    }

    void
    siftUp(std::size_t i)
    {
        const Key k = keys_[i];
        while (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            if (!before(k, keys_[parent]))
                break;
            keys_[i] = keys_[parent];
            i = parent;
        }
        keys_[i] = k;
    }

    /** Re-seat @p k, displaced from the end, starting at the root. */
    void
    siftDown(const Key &k)
    {
        const std::size_t n = keys_.size();
        std::size_t i = 0;
        for (;;) {
            std::size_t child = 2 * i + 1;
            if (child >= n)
                break;
            if (child + 1 < n && before(keys_[child + 1], keys_[child]))
                ++child;
            if (!before(keys_[child], k))
                break;
            keys_[i] = keys_[child];
            i = child;
        }
        keys_[i] = k;
    }

    std::vector<Key> keys_;
    std::vector<EventFn> fns_;
    /** Vacant slab slots. */
    std::vector<std::uint32_t> free_;
};

/**
 * Priority queue of timed callbacks with deterministic tie-breaking.
 *
 * The queue owns the notion of "now": the timestamp of the event currently
 * (or most recently) being executed. Scheduling into the past is a
 * simulator bug and panics.
 */
class EventQueue
{
  public:
    EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time (cycles). */
    Cycles
    now() const
    {
        if (pdes_ != nullptr) [[unlikely]]
            return parallelNow();
        return now_;
    }

    /** Slot of the event currently (or most recently) executing. */
    std::uint32_t
    currentSlot() const
    {
        if (pdes_ != nullptr) [[unlikely]]
            return parallelSlot();
        return curSlot_;
    }

    /** Number of pending events (serial mode). */
    std::size_t pending() const { return heap.size(); }

    /** True when no events remain (serial mode). */
    bool empty() const { return heap.empty(); }

    /** Pre-size the backing storage for @p events pending events. */
    void reserve(std::size_t events) { heap.reserve(events); }

    /**
     * Declare the number of execution slots (e.g. cluster nodes). Must
     * be called before any event for a slot >= the current count is
     * scheduled; growing the count does not disturb already-assigned
     * stamps. Slot 0 always exists (the default context).
     */
    void setNumSlots(std::uint32_t slots);

    /** Number of declared execution slots. */
    std::uint32_t numSlots() const
    {
        return static_cast<std::uint32_t>(slotSeq_.size());
    }

    /**
     * Schedule @p fn at absolute time @p when in the current slot's
     * context (the event will execute with currentSlot() unchanged).
     * @pre when >= now()
     */
    void schedule(Cycles when, EventFn fn);

    /**
     * Schedule @p fn at absolute time @p when to execute in @p slot's
     * context. This is the only way work crosses slots — in the machine
     * layer, the network's sender-side dispatch targeting the receiving
     * node. The tie-break stamp still comes from the *scheduling* slot.
     * @pre when >= now(), slot < numSlots()
     */
    void scheduleTo(std::uint32_t slot, Cycles when, EventFn fn);

    /** Schedule @p fn @p delta cycles from now. */
    void scheduleAfter(Cycles delta, EventFn fn)
    {
        schedule(now() + delta, std::move(fn));
    }

    /**
     * Execute the earliest pending event, advancing now().
     * @retval true an event was executed
     * @retval false the queue was empty
     */
    bool step();

    /** Run until the queue drains. Returns the number of events run. */
    std::uint64_t run();

    /**
     * Run until the queue drains or @p limit events have fired.
     * Used by tests and as a runaway guard.
     */
    std::uint64_t run(std::uint64_t limit);

    /** Events scheduled since construction. */
    std::uint64_t eventsScheduled() const { return scheduled_; }

    /** Events executed since construction. */
    std::uint64_t eventsRun() const { return executed_; }

    /** High-water mark of pending events (heap depth). */
    std::uint64_t maxPending() const { return maxPending_; }

    /** Register the kernel's scheduling statistics under "sim.*". */
    void registerMetrics(MetricsRegistry &registry) const;

  private:
    friend class PdesEngine;

    /**
     * Per-slot stamp counter, cache-line padded: in parallel mode each
     * slot's counter is touched only by the worker owning that slot's
     * partition, and padding keeps neighbouring slots from false
     * sharing on the scheduling hot path.
     */
    struct alignas(64) SlotSeq
    {
        std::uint64_t next = 0;
    };

    static constexpr unsigned stampSlotShift = 48;

    std::uint64_t
    makeStamp(std::uint32_t slot)
    {
        return (static_cast<std::uint64_t>(slot) << stampSlotShift) |
               slotSeq_[slot].next++;
    }

    /** Common serial-mode insert. */
    void push(Cycles when, std::uint64_t stamp, std::uint32_t exec_slot,
              EventFn &&fn);

    [[noreturn]] void pastPanic(Cycles when, Cycles now) const;

    /** Parallel-mode accessors (defined in pdes.cc). */
    Cycles parallelNow() const;
    std::uint32_t parallelSlot() const;

    EventHeap heap;
    Cycles now_ = 0;
    std::uint32_t curSlot_ = 0;
    std::vector<SlotSeq> slotSeq_;
    /** Non-null only while a PdesEngine::run is live on this queue. */
    PdesEngine *pdes_ = nullptr;
    std::uint64_t scheduled_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t maxPending_ = 0;
};

} // namespace swsm

#endif // SWSM_SIM_EVENT_QUEUE_HH
