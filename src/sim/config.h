/**
 * @file
 * Machine configuration.
 *
 * Defaults approximate the paper's evaluation platform, a quad-core
 * AMD Phenom II X4: per-core L1D and L2, one shared L3 (6 MiB), with
 * a single DRAM channel behind the L3. Sizes are scaled down by a
 * constant factor together with workload working sets so simulated
 * runs finish quickly while preserving the capacity relationships
 * (working sets span "fits in L2" to "several times the LLC").
 *
 * Simulated wall-clock time is defined by cyclesPerMs. All protean
 * runtime intervals (flux probes, compile costs, evaluation windows)
 * are specified in simulated milliseconds and converted through it.
 */

#ifndef PROTEAN_SIM_CONFIG_H
#define PROTEAN_SIM_CONFIG_H

#include <cstdint>

namespace protean {
namespace sim {

/** Non-temporal fill handling in the L2/LLC (DESIGN.md ablation). */
enum class NtPolicy : uint8_t {
    /** Insert at LRU position: evicted first unless re-referenced. */
    LruInsert,
    /** Do not allocate in L2/L3 at all. */
    Bypass,
};

/** Geometry and latency of one cache level. */
struct CacheConfig
{
    uint32_t sizeBytes = 0;
    uint32_t ways = 8;
    uint32_t lineBytes = 64;
    /** Added lookup latency when the access reaches this level. */
    uint32_t latency = 2;
};

/** Whole-machine configuration. */
struct MachineConfig
{
    uint32_t numCores = 4;

    /** Scaled-down Phenom-II-like hierarchy: capacities shrink with
     *  the simulated timescale so working sets spanning "fits in L2"
     *  through "several times the LLC" stay cheap to simulate. */
    CacheConfig l1 = {4 * 1024, 4, 64, 2};
    CacheConfig l2 = {16 * 1024, 8, 64, 6};
    CacheConfig l3 = {128 * 1024, 16, 64, 18};

    /** DRAM access latency after an L3 miss. */
    uint32_t dramLatency = 60;
    /** DRAM channel occupancy per access (bandwidth model). Two
     *  full-rate streamers oversubscribe the channel, so bandwidth
     *  contention is a real effect alongside LLC capacity. */
    uint32_t dramOccupancy = 6;

    /**
     * Stride prefetcher: when a core's recent accesses form a
     * sequential line run of at least prefetchMinRun, a demand miss
     * to DRAM also fills the next prefetchDegree lines into L2/L3 in
     * the background (no core stall). This restores the memory-level
     * parallelism a blocking in-order core lacks, so streaming
     * workloads run — and pollute the shared LLC — at realistic
     * rates, while irregular (strided/pointer-chasing) patterns see
     * full memory latency. Prefetch fills inherit the triggering
     * access's non-temporal flag, as prefetchnta streams do.
     */
    uint32_t prefetchDegree = 7;
    uint32_t prefetchMinRun = 4;

    NtPolicy ntPolicy = NtPolicy::LruInsert;

    /** Simulated cycles per simulated millisecond. */
    uint64_t cyclesPerMs = 5000;

    /** Duty-cycle period for the nap mechanism, in cycles. */
    uint64_t napPeriodCycles = 2000;

    uint64_t msToCycles(double ms) const
    {
        return static_cast<uint64_t>(ms * static_cast<double>(cyclesPerMs));
    }

    double cyclesToMs(uint64_t cycles) const
    {
        return static_cast<double>(cycles) /
            static_cast<double>(cyclesPerMs);
    }
};

/** Binary-translation execution mode. Its per-transfer costs are
 *  fixed (core.cc). */
struct BtConfig
{
    bool enabled = false;
};

} // namespace sim
} // namespace protean

#endif // PROTEAN_SIM_CONFIG_H
