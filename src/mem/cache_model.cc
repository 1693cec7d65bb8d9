#include "cache_model.hh"

#include <algorithm>
#include <bit>

#include "sim/log.hh"

namespace swsm
{

void
CacheModel::Level::init(std::uint32_t bytes, std::uint32_t assoc_,
                        std::uint32_t line_bytes)
{
    assoc = assoc_;
    const std::uint32_t num_sets = bytes / (line_bytes * assoc_);
    if (!std::has_single_bit(num_sets))
        SWSM_FATAL("cache level needs a power-of-two number of sets");
    setMask = num_sets - 1;
    tags.assign(static_cast<std::size_t>(num_sets) * assoc, 0);
}

bool
CacheModel::Level::lookupInsert(std::uint64_t line)
{
    const std::uint64_t tag = line + 1;
    std::uint64_t *const set =
        &tags[static_cast<std::size_t>(line & setMask) * assoc];
    // One pass shifts the set right behind the incoming tag: a hit at
    // way k stops after rotating [0, k], and a miss either stops at the
    // first empty way (all later ways are empty too) or drops the LRU
    // tag off the tail.
    std::uint64_t carry = tag;
    for (std::uint64_t *w = set; w != set + assoc; ++w) {
        const std::uint64_t cur = *w;
        *w = carry;
        if (cur == tag)
            return true;
        if (cur == 0)
            return false;
        carry = cur;
    }
    return false;
}

void
CacheModel::Level::invalidate(std::uint64_t line)
{
    const std::uint64_t tag = line + 1;
    std::uint64_t *const set =
        &tags[static_cast<std::size_t>(line & setMask) * assoc];
    std::uint64_t *const end = set + assoc;
    std::uint64_t *const w = std::find(set, end, tag);
    if (w == end)
        return;
    std::copy(w + 1, end, w);
    end[-1] = 0;
}

void
CacheModel::Level::clear()
{
    std::fill(tags.begin(), tags.end(), 0);
}

CacheModel::CacheModel(const MemoryParams &params) : params(params)
{
    if (!std::has_single_bit(params.lineBytes))
        SWSM_FATAL("cache line size must be a power of two");
    lineShift = static_cast<std::uint32_t>(std::countr_zero(params.lineBytes));
    l1.init(params.l1Bytes, params.l1Assoc, params.lineBytes);
    l2.init(params.l2Bytes, params.l2Assoc, params.lineBytes);
}

Cycles
CacheModel::lookupLine(std::uint64_t line)
{
    lastLine = line;
    if (l1.lookupInsert(line)) {
        l1Hits_.inc();
        return 0;
    }
    l1Misses_.inc();
    if (l2.lookupInsert(line)) {
        l2Hits_.inc();
        return params.l2HitCycles;
    }
    l2Misses_.inc();
    return params.memCycles;
}

Cycles
CacheModel::accessRange(GlobalAddr addr, std::uint64_t bytes, bool write)
{
    (void)write;
    if (bytes == 0)
        return 0;
    Cycles total = 0;
    const std::uint64_t first = addr >> lineShift;
    const std::uint64_t last = (addr + bytes - 1) >> lineShift;
    for (std::uint64_t line = first; line <= last; ++line)
        total += accessLine(line);
    return total;
}

void
CacheModel::invalidateRange(GlobalAddr addr, std::uint64_t bytes)
{
    if (bytes == 0)
        return;
    lastLine = noLine;
    const std::uint64_t first = addr >> lineShift;
    const std::uint64_t last = (addr + bytes - 1) >> lineShift;
    for (std::uint64_t line = first; line <= last; ++line) {
        l1.invalidate(line);
        l2.invalidate(line);
    }
}

void
CacheModel::reset()
{
    lastLine = noLine;
    l1.clear();
    l2.clear();
}

} // namespace swsm
