#include "stats.hh"

#include <algorithm>
#include <bit>

namespace swsm
{

namespace
{
thread_local int tlsStatShard = 0;
} // namespace

int
statShard()
{
    return tlsStatShard;
}

void
setStatShard(int shard)
{
    tlsStatShard = shard;
}

void
Histogram::sample(std::uint64_t v)
{
    // Bucket i >= 1 holds [2^(i-1), 2^i), i.e. values of bit width i;
    // the last bucket also takes everything wider.
    const std::size_t bucket = std::min<std::size_t>(
        static_cast<std::size_t>(std::bit_width(v)), buckets.size() - 1);
    ++buckets[bucket];
    ++total;
}

void
Histogram::reset()
{
    std::fill(buckets.begin(), buckets.end(), 0);
    total = 0;
}

void
StatGroup::addCounter(const std::string &name, const Counter *c)
{
    counters.emplace_back(name, c);
}

void
StatGroup::addAccumulator(const std::string &name, const Accumulator *a)
{
    accumulators.emplace_back(name, a);
}

void
StatGroup::addChild(const StatGroup *g)
{
    children.push_back(g);
}

void
StatGroup::dump(std::ostream &os, const std::string &prefix) const
{
    const std::string base = prefix.empty() ? name_ : prefix + "." + name_;
    for (const auto &[name, c] : counters)
        os << base << "." << name << " " << c->value() << "\n";
    for (const auto &[name, a] : accumulators) {
        os << base << "." << name << ".sum " << a->sum() << "\n";
        os << base << "." << name << ".mean " << a->mean() << "\n";
        os << base << "." << name << ".count " << a->count() << "\n";
    }
    for (const auto *child : children)
        child->dump(os, base);
}

} // namespace swsm
