/**
 * @file
 * Set-associative cache model (timing/occupancy only).
 *
 * Caches track tags and recency; data values live in the functional
 * memory (sim/memory.h). The non-temporal insertion policy implements
 * the microarchitectural effect of prefetchnta-style hints: lines
 * filled on behalf of a non-temporal access are inserted at the LRU
 * position (or bypass the level entirely, per NtPolicy), so they
 * relinquish the level's capacity quickly instead of polluting it.
 */

#ifndef PROTEAN_SIM_CACHE_H
#define PROTEAN_SIM_CACHE_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.h"

namespace protean {
namespace sim {

/** Cumulative per-cache statistics. */
struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t misses = 0;
    uint64_t ntFills = 0;

    double missRate() const
    {
        return accesses == 0 ? 0.0 :
            static_cast<double>(misses) / static_cast<double>(accesses);
    }
};

/**
 * One level of set-associative cache with LRU replacement.
 *
 * Storage is structure-of-arrays: flat set-major tag and last-use
 * arrays plus a per-set count of valid ways. No line is ever
 * invalidated, so the valid ways of a set are always a prefix of it;
 * a miss installs into the next empty way, or once the set is full
 * into the lowest-index way with the smallest last-use stamp. Every
 * operation scans its set once.
 */
class Cache
{
  public:
    /** Outcome of one set scan: the resident way on a hit, else the
     *  victim way an install would take. Valid until the next
     *  install into this cache. */
    struct Probe
    {
        uint32_t set;
        uint32_t way;
        bool hit;
    };

    /**
     * @param name Label for geometry errors.
     * @param cfg Geometry; sizeBytes must be divisible by
     *            ways * lineBytes and the set count must be a power
     *            of two.
     */
    Cache(const std::string &name, const CacheConfig &cfg);

    /**
     * Look up a line, counting the access; a hit updates recency.
     * @return true on hit.
     */
    bool access(uint64_t addr) { return lookup(addr, false, false); }

    /**
     * access(), and on a miss install the line into the victim the
     * same scan found.
     * @param nonTemporal Insert at the LRU position.
     * @return true on hit.
     */
    bool accessOrFill(uint64_t addr, bool nonTemporal)
    {
        return lookup(addr, true, nonTemporal);
    }

    /** Scan a line's set without updating recency or stats. */
    Probe probe(uint64_t addr) const;

    /**
     * Install a line into the victim of a missed probe, with no
     * second lookup.
     * @param p probe(addr) result with p.hit false, taken since the
     *          last install into this cache.
     * @param nonTemporal Insert at the LRU position.
     */
    void install(const Probe &p, uint64_t addr, bool nonTemporal);

    /**
     * Install a line unless it is already resident, in which case
     * nothing changes. The memory system never fills a resident
     * line; this early return is the seam tests use to place lines
     * directly.
     */
    void fill(uint64_t addr, bool nonTemporal);

    /** Probe without updating recency or stats (tests/occupancy). */
    bool contains(uint64_t addr) const { return probe(addr).hit; }

    /** Number of resident lines whose address tag matches the given
     *  owner id in the upper address bits (occupancy accounting). */
    uint64_t linesOwnedBy(uint64_t owner_base, uint64_t owner_span) const;

    const CacheStats &stats() const { return stats_; }

  private:
    uint32_t sets_;
    uint32_t ways_;
    uint32_t indexShift_;
    uint64_t useCounter_ = 1;
    /** Per set: valid ways, which are ways [0, filled). */
    std::vector<uint32_t> filled_;
    /** Per set: way of the last hit/install. A pure lookup shortcut —
     *  temporal locality makes the next access to a set usually hit
     *  the same way, skipping the associative scan. Never consulted
     *  for replacement, so recency is untouched. */
    std::vector<uint32_t> mruWay_;
    std::vector<uint64_t> tags_;    // sets_ * ways_, set-major
    std::vector<uint64_t> lastUse_; // sets_ * ways_, set-major
    CacheStats stats_;

    /** Count an access and scan its set once: a hit updates recency,
     *  a miss installs into the scan's victim if @p fill_miss. */
    bool lookup(uint64_t addr, bool fill_miss, bool nonTemporal);
};

// The per-access operations are defined inline: MemorySystem::access
// makes up to a few dozen of them per simulated access, and out of
// line every Probe result would round-trip through the stack.

inline Cache::Probe
Cache::probe(uint64_t addr) const
{
    const uint64_t line_addr = addr >> indexShift_;
    const uint32_t si = static_cast<uint32_t>(line_addr & (sets_ - 1));
    const uint32_t filled = filled_[si];
    const size_t base = static_cast<size_t>(si) * ways_;
    const uint64_t *tags = &tags_[base];
    // MRU-way fast path: repeated touches to a hot line skip the
    // associative scan entirely.
    const uint32_t m = mruWay_[si];
    if (m < filled && tags[m] == line_addr)
        return {si, m, true};
    for (uint32_t w = 0; w < filled; ++w) {
        if (tags[w] == line_addr)
            return {si, w, true};
    }
    if (filled < ways_)
        return {si, filled, false};
    // Full set: the first way holding the smallest stamp. NT lines
    // carry stamp 0, so among them the lowest way goes first.
    const uint64_t *last = &lastUse_[base];
    uint64_t oldest = last[0];
    uint32_t victim = 0;
    for (uint32_t w = 1; w < ways_; ++w) {
        // Select, not branch: which way is oldest is unpredictable.
        bool older = last[w] < oldest;
        oldest = older ? last[w] : oldest;
        victim = older ? w : victim;
    }
    return {si, victim, false};
}

inline void
Cache::install(const Probe &p, uint64_t addr, bool nonTemporal)
{
    const size_t i = static_cast<size_t>(p.set) * ways_ + p.way;
    if (p.way == filled_[p.set])
        ++filled_[p.set];
    mruWay_[p.set] = p.way;
    tags_[i] = addr >> indexShift_;
    if (nonTemporal) {
        // LRU-position insertion: next fill in this set evicts it
        // unless it is re-referenced first.
        lastUse_[i] = 0;
        ++stats_.ntFills;
    } else {
        lastUse_[i] = useCounter_++;
    }
}

inline bool
Cache::lookup(uint64_t addr, bool fill_miss, bool nonTemporal)
{
    ++stats_.accesses;
    Probe p = probe(addr);
    if (p.hit) {
        mruWay_[p.set] = p.way;
        lastUse_[static_cast<size_t>(p.set) * ways_ + p.way] =
            useCounter_++;
        return true;
    }
    ++stats_.misses;
    if (fill_miss)
        install(p, addr, nonTemporal);
    return false;
}

} // namespace sim
} // namespace protean

#endif // PROTEAN_SIM_CACHE_H
