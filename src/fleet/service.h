/**
 * @file
 * Fleet-wide compilation service (paper Section V-E).
 *
 * Thousands of servers in a warehouse-scale cluster run the *same*
 * binary, so protean-code transformations requested on one server are
 * requested — byte-for-byte identically — on every other. The service
 * exploits that: a content-addressed variant cache keyed by
 * (IR function hash, restricted NT mask, codegen options), sharded
 * K ways by key hash, with LRU eviction per shard, request
 * batching/coalescing (concurrent misses for one key collapse into a
 * single compile), and a network latency/bandwidth cost model charged
 * through the requesting machine's event queue.
 *
 * Warehouse scale also means shards die. The service is fault-aware
 * (DESIGN.md §9): an attached faults::FaultPlan injects seeded shard
 * crashes, dropped/delayed requests, and payload corruption; the
 * service tracks shard health, routes requests to the first live
 * member of each key's replica set (replication factor R), verifies
 * cached variants by checksum on every hit (reject-and-recompile on
 * corruption), and answers requests stranded on a crashed shard with
 * explicit failure responses so clients can retry or fall back —
 * never silently stall.
 *
 * Determinism rules (see DESIGN.md §7): the service only mutates
 * state inside advance(), which processes work in strict
 * (cycle, submission order) order; submissions carry explicit arrival
 * cycles; all responses resolve to explicit ready cycles. Fault
 * decisions are pure functions of the plan's seed and the request's
 * sequence number, so two identical runs — serial or parallel —
 * produce byte-identical metrics and traces.
 */

#ifndef PROTEAN_FLEET_SERVICE_H
#define PROTEAN_FLEET_SERVICE_H

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "faults/plan.h"
#include "runtime/compiler.h"

namespace protean {
namespace validate {
class Validator;
} // namespace validate

namespace fleet {

/** Client <-> service network cost model, in cycles. */
struct NetworkModel
{
    /** One-way client -> service latency. */
    uint64_t requestLatencyCycles = 400;
    /** One-way service -> client latency. */
    uint64_t responseLatencyCycles = 400;

    /** Cycles to push `bytes` through the response link. */
    uint64_t transferCycles(uint64_t bytes) const;
};

/** Requests arriving within this window of the first queued request
 *  are processed as one batch at the shard. */
constexpr uint64_t kBatchWindowCycles = 200;
/** Per-batch-member shard work (cache probe, bookkeeping). */
constexpr uint64_t kLookupCycles = 20;

/** Service sizing and cost parameters. */
struct ServiceConfig
{
    /** K-way sharding by content-key hash. */
    uint32_t numShards = 4;
    /** Cached variants per shard (LRU beyond this). */
    size_t shardCapacity = 64;
    /**
     * Replication factor R: each variant installs on its primary
     * shard plus the next R-1 shards in the ring, so a single-shard
     * crash loses no unique work. Clamped to numShards; 1 = no
     * replication (the pre-fault behavior).
     */
    uint32_t replication = 1;
    NetworkModel net;
};

/** Cumulative service statistics (also exported through obs). */
struct ServiceStats
{
    uint64_t requests = 0;
    uint64_t hits = 0;
    /** Misses that started a fresh compile. */
    uint64_t misses = 0;
    /** Misses that joined an in-flight compile for the same key. */
    uint64_t coalesced = 0;
    uint64_t evictions = 0;
    uint64_t batches = 0;
    uint64_t compiles = 0;
    uint64_t compileCycles = 0;
    uint64_t bytesOut = 0;
    // ----- fault injection and degradation -----
    /** Requests lost in transit (injected drops; never answered). */
    uint64_t dropped = 0;
    /** Requests hit by an injected in-transit delay. */
    uint64_t delayed = 0;
    /** Failure responses sent (replica set down, crash mid-work). */
    uint64_t failed = 0;
    /** Requests routed to a replica because the preferred shard was
     *  down (health-based rerouting). */
    uint64_t replicaRoutes = 0;
    /** Cached-variant installs on non-primary replica shards. */
    uint64_t replicaInstalls = 0;
    /** Cached entries that failed checksum verification on a hit
     *  and were rejected + recompiled. */
    uint64_t corruptRejects = 0;
    /** Responses shipped with an injected payload corruption (the
     *  client's checksum catches these). */
    uint64_t corruptResponses = 0;
    /** Shard crashes applied. */
    uint64_t crashes = 0;
    /** Cached variants wiped by crashes. */
    uint64_t lostEntries = 0;
    /** Recompiles started because a checksum-rejected cache entry
     *  had to be replaced (split out of `misses`: the key *was*
     *  known, the payload was just bad at rest). */
    uint64_t corruptRecompiles = 0;
    // ----- translation-validation install gate (DESIGN.md §12) ----
    /** Variants the gate proved equivalent and installed. */
    uint64_t validatePasses = 0;
    /** Variants the gate refuted (never installed anywhere). */
    uint64_t validateFails = 0;
    /** Verdicts that needed tier-2 differential execution. */
    uint64_t validateEscalations = 0;
    /** Modeled validation cycles, charged to shard backends. */
    uint64_t validateCycles = 0;
    /** Recompiles started after a validate reject. */
    uint64_t validateRecompiles = 0;
    /** Injected miscompiles that actually mutated a build. */
    uint64_t miscompilesInjected = 0;
    /** Injected miscompiles the gate *missed* (bad installs — the
     *  number bench/fleet_faults requires to be zero). */
    uint64_t miscompilesInstalled = 0;

    /** Hit fraction of classified requests (hits + coalesced count
     *  as served-without-compile; corrupt-rejected hits count as
     *  classified non-hits). */
    double hitRateOf() const
    {
        uint64_t classified = hits + misses + coalesced +
            corruptRejects;
        if (classified == 0)
            return 0.0;
        return static_cast<double>(hits + coalesced) /
            static_cast<double>(classified);
    }
};

/**
 * The shared compilation service.
 *
 * Clients submit jobs with explicit arrival cycles; a coordinator
 * (fleet::Cluster) calls advance(T) at time barriers, which resolves
 * everything arriving or completing at or before T and invokes the
 * response callbacks with the computed ready cycles.
 *
 * Responses for cache hits fire at batch close; responses for
 * misses and coalesced requests fire when the compile *completes* —
 * so a shard crash can strand them (waiters get failure responses,
 * or nothing at all if the request itself was dropped in transit),
 * which is exactly what client-side timeouts exist to catch.
 */
class CompileService
{
  public:
    using Response =
        std::function<void(const runtime::CompileOutcome &)>;

    explicit CompileService(const ServiceConfig &cfg);

    const ServiceConfig &config() const { return cfg_; }

    /**
     * Attach a fault plan (nullptr = benign). The plan must outlive
     * the service. Outage schedule consumption happens inside
     * advance(), so one plan must not be shared by two services
     * (clusters share the plan's pure decisions only).
     */
    void setFaultPlan(faults::FaultPlan *plan);

    /**
     * Attach the translation-validation install gate (nullptr =
     * ungated, the pre-§12 behavior). When set, every completed
     * compile is validated *before* it installs or answers waiters:
     * a refuted variant is discarded and recompiled (bounded
     * attempts), and validation cycles extend the shard backend like
     * compile cycles. The validator must outlive the service; it is
     * only consulted inside advance() on the coordinator, and its
     * verdicts are pure, so parallel stepping stays byte-identical.
     */
    void setValidator(const validate::Validator *v);

    /**
     * Submit a compile request.
     * @param server Requesting server id (stats, traces).
     * @param job The compile job (content key, cost, size).
     * @param arrival_cycle When the request reaches the service.
     * @param done Invoked (from a later advance()) with the outcome;
     *        outcome.readyCycle is when the client holds the variant.
     * @param route_offset Rotates the key's replica set before
     *        health-based selection: 0 prefers the primary, 1 the
     *        first replica, ... Hedged and retried requests use it to
     *        land on a different shard than the attempt they back up.
     */
    void submit(uint32_t server, const runtime::CompileJob &job,
                uint64_t arrival_cycle, Response done,
                uint32_t route_offset = 0);

    /**
     * Enter/leave deferred-submission mode (parallel fleet
     * stepping). While on, submit() only appends to a per-server
     * staging buffer under an internal lock — no stats, metrics or
     * ordering decisions are made — so machines on worker threads may
     * submit concurrently. flushDeferred() replays the buffers.
     */
    void setDeferSubmissions(bool on);

    /**
     * Replay deferred submissions through the normal submit path, in
     * ascending server order (submission order within one server is
     * preserved). When server ids follow the coordinator's machine
     * stepping order — as fleet::FleetSim guarantees — the resulting
     * sequence numbering is identical to a serial quantum, making
     * parallel runs byte-identical to serial ones.
     */
    void flushDeferred();

    /** Resolve all work arriving/completing at or before cycle. */
    void advance(uint64_t cycle);

    /** Shard a content key routes to (stable across instances). */
    uint32_t shardOf(uint64_t content_key) const;

    /** The key's replica set: primary + next R-1 ring shards. */
    std::vector<uint32_t> replicaSet(uint64_t content_key) const;

    /** Health view: false while the shard is inside an applied
     *  outage at `cycle` (crashed, not yet restarted). */
    bool shardUp(uint32_t shard, uint64_t cycle) const;

    /** Cached variants currently resident in one shard. */
    size_t shardOccupancy(uint32_t shard) const;

    /** True when `key` is resident (uncorrupted) in `shard`. */
    bool shardHasKey(uint32_t shard, uint64_t key) const;

    const ServiceStats &stats() const { return stats_; }

    /** Hit fraction of all classified requests (hits + coalesced
     *  count as served-without-compile). */
    double hitRate() const;

    /** Publish per-shard occupancy/compile/health gauges
     *  (idempotent). */
    void exportObsMetrics() const;

  private:
    struct Request
    {
        uint64_t arrival = 0;
        uint64_t seq = 0;
        uint32_t server = 0;
        uint32_t routeOffset = 0;
        runtime::CompileJob job;
        Response done;
    };

    struct CacheEntry
    {
        uint64_t key = 0;
        uint64_t codeBytes = 0;
        /** Injected at-rest corruption; the checksum verification on
         *  the next hit rejects the entry and recompiles. */
        bool corrupt = false;
    };

    /** A request waiting on an in-flight compile (the miss that
     *  started it, or a coalesced rider). Answered at completion —
     *  or failed if the shard crashes first. */
    struct Waiter
    {
        Request req;
        /** Started the compile (false = coalesced rider). */
        bool isMiss = false;
        /** Compile start cycle (outcome reporting). */
        uint64_t startCycle = 0;
    };

    struct Shard
    {
        /** LRU order, most recently used first. */
        std::list<CacheEntry> lru;
        std::unordered_map<uint64_t, std::list<CacheEntry>::iterator>
            index;
        /** Arrival-ordered requests not yet in a closed batch. */
        std::deque<Request> queue;
        /** One in-flight compile: when it finishes, what it ships,
         *  and what was asked for (the job is what the install gate
         *  validates; attempt feeds the miscompile stream and bounds
         *  reject-and-recompile loops). */
        struct Inflight
        {
            uint64_t done = 0;
            uint64_t bytes = 0;
            runtime::CompileJob job;
            uint32_t attempt = 0;
        };
        /** In-flight compiles by content key. */
        std::unordered_map<uint64_t, Inflight> inflight;
        /** Completion cycle -> keys finishing then (install order). */
        std::map<uint64_t, std::vector<uint64_t>> completions;
        /** Requests answered when their key's compile completes. */
        std::unordered_map<uint64_t, std::vector<Waiter>> waiters;
        /** Serial compile backend availability. */
        uint64_t backendFree = 0;
        uint64_t compileCycles = 0;
        /** Crashed until this cycle (0 = healthy). */
        uint64_t downUntil = 0;
    };

    ServiceConfig cfg_;
    std::vector<Shard> shards_;
    /** Submitted but not yet routed (sorted into shards at
     *  advance()). */
    std::vector<Request> pending_;
    uint64_t seq_ = 0;
    ServiceStats stats_;
    faults::FaultPlan *plan_ = nullptr;
    const validate::Validator *validator_ = nullptr;
    /** Compile attempts per key before the gate gives up and fails
     *  the waiters (clients retry or fall back locally). */
    static constexpr uint32_t kMaxCompileAttempts = 4;
    /** Deferred-submission staging (parallel quanta). */
    bool defer_ = false;
    std::mutex deferMu_;
    std::map<uint32_t, std::vector<Request>> deferred_;

    /** Seq assignment + fault (drop/delay) application; shared by
     *  submit() and flushDeferred(). */
    void admit(Request r);
    void advanceShard(uint32_t s, uint64_t cycle);
    /** Move keys completing at or before cycle into the cache and
     *  answer their waiters. */
    void installCompletions(uint32_t s, Shard &sh, uint64_t cycle);
    void installKey(uint32_t s, Shard &sh, uint64_t key,
                    uint64_t code_bytes, uint64_t cycle);
    void resolveBatch(uint32_t s, Shard &sh, uint64_t close);
    /** Apply one outage: wipe the shard, fail stranded requests. */
    void crashShard(uint32_t s, Shard &sh,
                    const faults::ShardOutage &outage);
    /** Send a failure response at `cycle` (+ response latency). */
    void failRequest(Request &r, uint64_t cycle, const char *reason);
    /** Deliver a success response, applying in-transit corruption. */
    void respond(Request &r, runtime::CompileOutcome out,
                 const char *verdict, uint32_t shard);
};

} // namespace fleet
} // namespace protean

#endif // PROTEAN_FLEET_SERVICE_H
