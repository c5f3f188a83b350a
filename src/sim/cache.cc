#include "sim/cache.h"

#include <bit>

#include "support/logging.h"

namespace protean {
namespace sim {

Cache::Cache(const std::string &name, const CacheConfig &cfg)
    : ways_(cfg.ways)
{
    if (cfg.sizeBytes == 0 || cfg.ways == 0 || cfg.lineBytes == 0)
        fatal("cache %s: zero geometry parameter", name.c_str());
    if (cfg.sizeBytes % (cfg.ways * cfg.lineBytes) != 0)
        fatal("cache %s: size %u not divisible by ways*line",
              name.c_str(), cfg.sizeBytes);
    sets_ = cfg.sizeBytes / (cfg.ways * cfg.lineBytes);
    if (!std::has_single_bit(sets_))
        fatal("cache %s: set count %u is not a power of two",
              name.c_str(), sets_);
    if (!std::has_single_bit(cfg.lineBytes))
        fatal("cache %s: line size %u is not a power of two",
              name.c_str(), cfg.lineBytes);
    indexShift_ = static_cast<uint32_t>(std::countr_zero(cfg.lineBytes));
    // The per-set arrays are allocated before the per-line ones. The
    // order shapes the heap a colo cell's 4 MB image buffers are
    // later placed in: the reverse order measured a 4 MB (~18%)
    // higher perfbench colo peak RSS. That metric follows glibc heap
    // placement, not memory in use: the order keeps a lucky
    // placement and guarantees nothing.
    filled_.resize(sets_);
    mruWay_.resize(sets_);
    tags_.resize(static_cast<size_t>(sets_) * ways_);
    lastUse_.resize(tags_.size());
}

void
Cache::fill(uint64_t addr, bool nonTemporal)
{
    Probe p = probe(addr);
    if (!p.hit)
        install(p, addr, nonTemporal);
}

uint64_t
Cache::linesOwnedBy(uint64_t owner_base, uint64_t owner_span) const
{
    uint64_t lo = owner_base >> indexShift_;
    uint64_t hi = (owner_base + owner_span - 1) >> indexShift_;
    uint64_t n = 0;
    for (uint32_t s = 0; s < sets_; ++s) {
        const uint64_t *tags = &tags_[static_cast<size_t>(s) * ways_];
        for (uint32_t w = 0; w < filled_[s]; ++w)
            n += tags[w] >= lo && tags[w] <= hi;
    }
    return n;
}

} // namespace sim
} // namespace protean
