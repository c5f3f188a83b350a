/**
 * @file
 * Deterministic, seeded fault injection for the fleet.
 *
 * Warehouse-scale operation means shards crash, requests vanish in
 * the network, payloads arrive corrupted, and whole servers pause
 * (GC, live migration, kernel hiccups). A FaultPlan is a *seeded
 * schedule* of those events, consulted by fleet::Cluster and
 * fleet::CompileService at quantum barriers, so a faulted run is as
 * reproducible as a benign one — byte-identical metrics and traces
 * across repeats, serial or parallel (DESIGN.md §9).
 *
 * Two kinds of decision, with different determinism mechanics:
 *
 *  - *Schedules* (shard outages) are generated lazily from per-shard
 *    forked Rng streams: exponential up-times, fixed restart delay.
 *    Only the coordinator consults them (inside
 *    CompileService::advance()), so lazy extension needs no locking.
 *
 *  - *Pure decisions* (drop/delay/corrupt a request, pause a server
 *    in a quantum) are stateless hashes of (seed, identity): any
 *    thread may evaluate them, in any order, and always gets the
 *    same answer. This is what keeps parallel fleet stepping
 *    byte-identical to serial under fault injection — no shared RNG
 *    stream whose consumption order could differ.
 */

#ifndef PROTEAN_FAULTS_PLAN_H
#define PROTEAN_FAULTS_PLAN_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "support/random.h"

namespace protean {
namespace faults {

/** Fault rates and magnitudes. All cycle values are simulated
 *  cycles; probabilities are per-event. Zero everywhere = benign. */
struct FaultConfig
{
    /** Root seed for every fault stream (independent of the
     *  workload seed, so fault placement can be varied alone). */
    uint64_t seed = 0x5eedfa01;

    /** Mean shard up-time between crashes (0 = shards never crash).
     *  Each shard draws its own exponential crash schedule. */
    double shardCrashMeanCycles = 0.0;
    /** Downtime per crash before the shard restarts (empty). */
    uint64_t shardRestartCycles = 20000;

    /** Probability a request is dropped in transit (no response;
     *  the client's timeout is the only signal). */
    double requestDropProb = 0.0;
    /** Probability a request is delayed in transit (by a fixed
     *  delay, plan.cc). */
    double requestDelayProb = 0.0;

    /** Probability a response payload is corrupted in transit
     *  (client-side checksum rejects it). */
    double responseCorruptProb = 0.0;
    /** Probability a cached variant is corrupted at rest on install
     *  (service-side checksum rejects it on the next hit and
     *  recompiles). */
    double cacheCorruptProb = 0.0;

    /** Probability a given server pauses in a given quantum (GC /
     *  migration blackout; its cores make no progress) for a fixed
     *  pause (plan.cc). */
    double serverPauseProb = 0.0;

    /** Probability a service-side compile emerges *miscompiled*
     *  (a seeded semantic mutation of the variant's instruction
     *  stream — see validate::applyMiscompile). Checksums cannot
     *  catch these; only the translation-validation install gate
     *  does (DESIGN.md §12). */
    double miscompileProb = 0.0;

    /** True when any fault rate is non-zero. */
    bool anyEnabled() const
    {
        return shardCrashMeanCycles > 0.0 || requestDropProb > 0.0 ||
            requestDelayProb > 0.0 || responseCorruptProb > 0.0 ||
            cacheCorruptProb > 0.0 || serverPauseProb > 0.0 ||
            miscompileProb > 0.0;
    }
};

/** One shard outage: crashes at `at`, restarts at `until`. */
struct ShardOutage
{
    uint64_t at = 0;
    uint64_t until = 0;
};

/** The classes of compiler bug the miscompile stream injects. Each
 *  mutates the produced instruction stream in a way a byte checksum
 *  is blind to (the bytes are self-consistent — just wrong). */
enum class MiscompileKind : uint8_t {
    /** A store silently becomes a no-op (dead-store elimination gone
     *  wrong). */
    DroppedStore,
    /** A load's non-temporal bit disagrees with the requested mask
     *  (the NT transform itself misapplied). */
    FlippedNtBit,
    /** A non-commutative operation's sources swapped (operand-order
     *  bug). */
    SwappedOperand,
};

constexpr uint32_t kNumMiscompileKinds = 3;

const char *miscompileKindName(MiscompileKind k);

/** One injected miscompile: what kind of mutation, and a seed that
 *  picks the mutation site among the eligible instructions. */
struct MiscompileSpec
{
    MiscompileKind kind = MiscompileKind::DroppedStore;
    uint64_t siteSeed = 0;
};

/**
 * The seeded fault schedule.
 *
 * Coordinator-only methods (outage schedule access) lazily extend
 * per-shard streams and must be called from the thread driving
 * CompileService::advance(). Pure decision methods are const,
 * stateless, and safe from any thread.
 */
class FaultPlan
{
  public:
    /** A benign plan: no faults, every query says "no". */
    FaultPlan() = default;

    explicit FaultPlan(const FaultConfig &cfg);

    const FaultConfig &config() const { return cfg_; }

    /** True when this plan can ever inject anything. */
    bool enabled() const { return enabled_; }

    /**
     * Script an outage by hand (tests, targeted experiments).
     * Outages must be appended in increasing time order per shard
     * and must not overlap; scripting mixes with generated outages
     * only if the crash stream is disabled (shardCrashMeanCycles 0).
     */
    void addShardOutage(uint32_t shard, uint64_t at, uint64_t until);

    /**
     * Script a miscompile for one (content key, compile attempt)
     * pair (tests, targeted experiments). Scripted entries win over
     * the probabilistic stream for their exact pair.
     */
    void addMiscompile(uint64_t key, uint32_t attempt,
                       const MiscompileSpec &spec);

    // ----- coordinator-only schedule access -----

    /** Is the shard inside an outage window at `cycle`?
     *  (Lazily extends the shard's schedule through `cycle`.) */
    bool shardDownAt(uint32_t shard, uint64_t cycle);

    /** Next unconsumed outage with crash cycle <= up_to, or nullptr.
     *  The service consumes one outage per crash it applies. */
    const ShardOutage *peekOutage(uint32_t shard, uint64_t up_to);

    /** Mark the outage returned by peekOutage as applied. */
    void consumeOutage(uint32_t shard);

    // ----- pure decisions (thread-safe, order-independent) -----

    /** Request `seq` is dropped in transit. */
    bool dropRequest(uint64_t seq) const;

    /** Transit delay for request `seq` (0 = on time). */
    uint64_t requestDelay(uint64_t seq) const;

    /** Response to request `seq` is corrupted in transit. */
    bool corruptResponse(uint64_t seq) const;

    /** Variant `key` installed at `cycle` is corrupted at rest. */
    bool corruptCachedEntry(uint64_t key, uint64_t cycle) const;

    /** Cycles server `server` pauses in the quantum starting at
     *  `quantum_start` (0 = no pause). */
    uint64_t serverPauseCycles(uint32_t server,
                               uint64_t quantum_start) const;

    /**
     * Does the compile of `key` on `attempt` (0 = the first try;
     * validate-gate recompiles bump it) come out miscompiled? When
     * true and `out` is non-null, *out receives the seeded mutation
     * to apply. Scripted pairs (addMiscompile) take precedence; the
     * probabilistic stream draws kind and site purely from
     * (seed, key, attempt), so serial and parallel runs inject the
     * identical bug in the identical build.
     */
    bool miscompile(uint64_t key, uint32_t attempt,
                    MiscompileSpec *out = nullptr) const;

  private:
    struct ShardSchedule
    {
        Rng rng;
        /** Schedule generated through this cycle. */
        uint64_t horizon = 0;
        /** End of the last generated outage (next up-time starts
         *  here). */
        uint64_t lastEnd = 0;
        std::vector<ShardOutage> outages;
        /** Next outage the service has not yet applied. */
        size_t cursor = 0;
    };

    FaultConfig cfg_;
    bool enabled_ = false;
    std::map<uint32_t, ShardSchedule> shards_;
    /** Scripted miscompiles keyed by (content key, attempt). */
    std::map<std::pair<uint64_t, uint32_t>, MiscompileSpec>
        scriptedMiscompiles_;

    ShardSchedule &sched(uint32_t shard);
    void extend(ShardSchedule &s, uint64_t up_to);
    /** Uniform [0,1) from a pure hash of (seed, tag, a, b). */
    double hash01(uint64_t tag, uint64_t a, uint64_t b) const;
    /** Raw 64-bit pure hash of (seed, tag, a, b). */
    uint64_t hashBits(uint64_t tag, uint64_t a, uint64_t b) const;
};

} // namespace faults
} // namespace protean

#endif // PROTEAN_FAULTS_PLAN_H
