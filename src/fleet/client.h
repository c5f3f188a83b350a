/**
 * @file
 * Fleet cache client: the remote CompileBackend.
 *
 * Plugs into runtime::RuntimeCompiler in place of the local backend.
 * A variant request becomes a network message to the shared
 * CompileService; the server pays only a small install cost (EVT
 * patch, code-cache append bookkeeping) plus the modeled network
 * round trip — never the compile cycles, which land on the service
 * (and are amortized fleet-wide by its content-addressed cache).
 *
 * The client is also the fleet's last line of defense against service
 * faults (DESIGN.md §9). With a RetryPolicy attached it climbs a
 * degradation ladder, so host QoS never depends on service health:
 *
 *   1. per-attempt timeout — a dropped request or a crash-stranded
 *      compile fires the attempt's timeout on this machine's own
 *      event queue;
 *   2. capped exponential backoff with seeded jitter, each retry
 *      rotated to a different member of the key's replica set;
 *   3. optional hedging — a duplicate request to the secondary shard
 *      when the first attempt is slow, first success wins;
 *   4. a circuit breaker that stops hammering a sick service and
 *      sends requests straight to the local fallback, with half-open
 *      recovery probes;
 *   5. the LocalCompileBackend fallback — the single-server model —
 *      which always resolves, at the cost of stolen host cycles.
 *
 * Every rung is deterministic: timeouts/backoffs/hedges are machine
 * events, jitter comes from a per-server seeded Rng consumed in event
 * order, and responses fire at cluster barriers — so faulted runs are
 * byte-identical serial or parallel.
 */

#ifndef PROTEAN_FLEET_CLIENT_H
#define PROTEAN_FLEET_CLIENT_H

#include <memory>
#include <unordered_map>

#include "fleet/service.h"
#include "obs/hdr.h"
#include "sim/machine.h"
#include "support/random.h"

namespace protean {
namespace fleet {

/**
 * Client-side circuit breaker (Closed -> Open -> HalfOpen -> Closed).
 *
 * Closed: requests flow; `failureThreshold` consecutive failures trip
 * it Open. Open: requests short-circuit to the local fallback until
 * `openCycles` elapse, then the breaker goes HalfOpen. HalfOpen:
 * requests probe the service; one failure re-opens, `closeThreshold`
 * consecutive successes close. Pure state machine — no clocks of its
 * own, callers pass the current cycle — so it is trivially
 * deterministic and unit-testable.
 */
class CircuitBreaker
{
  public:
    enum class State
    {
        Closed,
        Open,
        HalfOpen,
    };

    struct Config
    {
        /** Consecutive failures that trip Closed -> Open. */
        uint32_t failureThreshold = 4;
        /** Cycles spent Open before probing (HalfOpen). */
        uint64_t openCycles = 50000;
        /** Consecutive HalfOpen successes that close the breaker. */
        uint32_t closeThreshold = 2;
    };

    CircuitBreaker() = default;
    explicit CircuitBreaker(const Config &cfg) : cfg_(cfg) {}

    /** May a request go to the service at `now`? Transitions
     *  Open -> HalfOpen when the open window has elapsed. */
    bool allowRequest(uint64_t now);

    /** Record a successful service interaction at `now`. */
    void onSuccess(uint64_t now);

    /** Record a failed service interaction (timeout, failure or
     *  corrupt response) at `now`. */
    void onFailure(uint64_t now);

    State state() const { return state_; }
    /** Times the breaker tripped to Open (incl. HalfOpen re-opens). */
    uint64_t opens() const { return opens_; }

  private:
    Config cfg_;
    State state_ = State::Closed;
    uint32_t consecutiveFailures_ = 0;
    uint32_t halfOpenSuccesses_ = 0;
    uint64_t openUntil_ = 0;
    uint64_t opens_ = 0;

    void trip(uint64_t now);
};

/** Client-side fault-tolerance knobs. Disabled by default, so plain
 *  RemoteBackend users keep the fire-and-wait-forever behavior. */
struct RetryPolicy
{
    /** Master switch for the whole degradation ladder. */
    bool enabled = false;
    /** Remote attempts per request before local fallback. */
    uint32_t maxAttempts = 3;
    /** Per-attempt timeout (request -> response), in cycles. Must
     *  comfortably exceed a worst-case queued compile so benign runs
     *  never retry spuriously. */
    uint64_t attemptTimeoutCycles = 400000;
    /** Backoff before retry k is base << (k-1), capped. */
    uint64_t backoffBaseCycles = 2000;
    uint64_t backoffCapCycles = 64000;
    /** Hedge the first attempt with a duplicate to the next replica
     *  after this many cycles without a response (0 = no hedging). */
    uint64_t hedgeAfterCycles = 0;
    CircuitBreaker::Config breaker;
};

/** Client-side fault/degradation counters (per server). */
struct ClientStats
{
    /** compile() calls routed to the service. */
    uint64_t remoteRequests = 0;
    /** Attempt timeouts fired. */
    uint64_t timeouts = 0;
    /** Retry attempts issued (after backoff). */
    uint64_t retries = 0;
    /** Hedged duplicates issued. */
    uint64_t hedges = 0;
    /** Explicit failure responses received. */
    uint64_t failedResponses = 0;
    /** Responses rejected by the payload checksum. */
    uint64_t corruptResponses = 0;
    /** Requests resolved by the local fallback compiler. */
    uint64_t localFallbacks = 0;
    /** Requests short-circuited by an open breaker. */
    uint64_t breakerShortCircuits = 0;
    /** Worst request -> variant-ready latency seen, in cycles (the
     *  fleet's worst-case flip latency). */
    uint64_t maxResolveCycles = 0;
};

/** Per-server client for the fleet compilation service. */
class RemoteBackend : public runtime::CompileBackend
{
  public:
    /**
     * @param svc The shared service (must outlive the backend).
     * @param machine This server's machine (send times, installs).
     * @param server_id Fleet-wide server index (stats, traces).
     * @param install_core Core charged with variant installation.
     */
    RemoteBackend(CompileService &svc, sim::Machine &machine,
                  uint32_t server_id, uint32_t install_core = 0);

    /** Arm the degradation ladder. Call before any compile(). */
    void setRetryPolicy(const RetryPolicy &policy);

    void compile(const runtime::CompileJob &job,
                 std::function<void(const runtime::CompileOutcome &)>
                     done) override;

    const char *backendName() const override { return "fleet"; }

    const ClientStats &clientStats() const { return cstats_; }
    const CircuitBreaker &breaker() const { return breaker_; }

    /**
     * Merge this server's flip-latency histogram for the current
     * rollup window into `into`, then reset it. Called by the
     * telemetry hub at cluster barriers (coordinator thread);
     * resolve latencies are recorded by this machine's own callbacks
     * during quanta, so the two never race.
     */
    void drainFlipWindow(obs::HdrHistogram &into);

    /** Requests neither resolved nor handed to the local fallback —
     *  a host workload stall if nonzero once the sim has drained. */
    size_t pendingCount() const { return pending_.size(); }

    /** Pending requests older than `age_bound` cycles at `now`:
     *  requests the degradation ladder should have resolved by now.
     *  Recently-sent requests still inside their ladder budget are
     *  excluded, so this is a true stall count even mid-run. */
    size_t stalledCount(uint64_t now, uint64_t age_bound) const;

  private:
    /** One logical request climbing the ladder. Kept behind a
     *  shared_ptr: timeout/hedge/response closures may outlive its
     *  slot in pending_ (stale events check `resolved`/`closed`). */
    struct PendingReq
    {
        uint64_t id = 0;
        runtime::CompileJob job;
        std::function<void(const runtime::CompileOutcome &)> done;
        /** Cycle compile() was called (resolve-latency baseline). */
        uint64_t sendCycle = 0;
        /** Attempts started so far (also the next route offset). */
        uint32_t attempts = 0;
        /** Attempts in flight (started, not closed/resolved). */
        uint32_t outstanding = 0;
        bool resolved = false;
        bool hedged = false;
        /** Per-attempt closed flags (timeout vs late failure). */
        std::vector<char> closed;
    };
    using PendingPtr = std::shared_ptr<PendingReq>;

    CompileService &svc_;
    sim::Machine &machine_;
    uint32_t serverId_;
    uint32_t installCore_;
    uint64_t requests_ = 0;

    RetryPolicy policy_;
    CircuitBreaker breaker_;
    Rng jitterRng_;
    runtime::LocalCompileBackend local_;
    ClientStats cstats_;
    /** Request -> variant-ready latencies since the last window
     *  drain (fleet p99 flip latency source). */
    obs::HdrHistogram flipWindow_;
    uint64_t nextId_ = 0;
    std::unordered_map<uint64_t, PendingPtr> pending_;

    /** Record a resolved request's flip latency (stats + window). */
    void recordResolve(uint64_t send_cycle, uint64_t ready_cycle);
    /** Distributed trace id for the next request (unique fleet-wide:
     *  server id in the high bits, request counter in the low). */
    uint64_t nextTraceId() const
    {
        return (static_cast<uint64_t>(serverId_) + 1) << 32 |
            requests_;
    }

    void startAttempt(const PendingPtr &p);
    void closeAttempt(const PendingPtr &p, uint32_t attempt,
                      const char *reason);
    void escalate(const PendingPtr &p);
    void resolveSuccess(const PendingPtr &p,
                        const runtime::CompileOutcome &out);
    void localFallback(const PendingPtr &p, const char *reason);
    uint64_t backoffCycles(uint32_t attempt);
};

} // namespace fleet
} // namespace protean

#endif // PROTEAN_FLEET_CLIENT_H
