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
    ways.assign(static_cast<std::size_t>(num_sets) * assoc, Way{});
}

bool
CacheModel::Level::lookupInsert(std::uint64_t line, std::uint64_t stamp)
{
    const std::uint64_t tag = line + 1;
    Way *const set = &ways[static_cast<std::size_t>(line & setMask) * assoc];
    Way *victim = set;
    for (Way *w = set; w != set + assoc; ++w) {
        if (w->tag == tag) {
            w->stamp = stamp;
            return true;
        }
        if (w->stamp < victim->stamp)
            victim = w;
    }
    victim->tag = tag;
    victim->stamp = stamp;
    return false;
}

void
CacheModel::Level::invalidate(std::uint64_t line)
{
    const std::uint64_t tag = line + 1;
    Way *const set = &ways[static_cast<std::size_t>(line & setMask) * assoc];
    for (Way *w = set; w != set + assoc; ++w) {
        if (w->tag == tag)
            *w = Way{};
    }
}

void
CacheModel::Level::clear()
{
    std::fill(ways.begin(), ways.end(), Way{});
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
    ++stamp;
    if (l1.lookupInsert(line, stamp)) {
        l1Hits_.inc();
        return 0;
    }
    l1Misses_.inc();
    if (l2.lookupInsert(line, stamp)) {
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
