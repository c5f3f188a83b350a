#include "fleet/client.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/logging.h"

namespace protean {
namespace fleet {

namespace {

/** Modeled cost of installing a received variant (EVT patch +
 *  bookkeeping). */
constexpr uint64_t kInstallCycles = 100;
/** Backoff jitter: multiplier drawn uniformly from [1-frac, 1+frac)
 *  out of the per-server seeded stream. */
constexpr double kJitterFrac = 0.5;
/** Seed domain for the per-server jitter stream. */
constexpr uint64_t kJitterSeed = 0x7e77a;

} // namespace

// ---------------------------------------------------------------- //
//                         CircuitBreaker                           //
// ---------------------------------------------------------------- //

bool
CircuitBreaker::allowRequest(uint64_t now)
{
    switch (state_) {
    case State::Closed:
        return true;
    case State::Open:
        if (now < openUntil_)
            return false;
        state_ = State::HalfOpen;
        halfOpenSuccesses_ = 0;
        return true;
    case State::HalfOpen:
        return true;
    }
    return true;
}

void
CircuitBreaker::onSuccess(uint64_t now)
{
    (void)now;
    consecutiveFailures_ = 0;
    if (state_ == State::HalfOpen) {
        if (++halfOpenSuccesses_ >= cfg_.closeThreshold)
            state_ = State::Closed;
    }
}

void
CircuitBreaker::onFailure(uint64_t now)
{
    if (state_ == State::HalfOpen) {
        // A failed probe re-opens immediately.
        trip(now);
        return;
    }
    if (state_ == State::Open)
        return;
    if (++consecutiveFailures_ >= cfg_.failureThreshold)
        trip(now);
}

void
CircuitBreaker::trip(uint64_t now)
{
    state_ = State::Open;
    openUntil_ = now + cfg_.openCycles;
    consecutiveFailures_ = 0;
    halfOpenSuccesses_ = 0;
    ++opens_;
    obs::metrics().counter("fleet.client.breaker_opens").inc();
}

// ---------------------------------------------------------------- //
//                          RemoteBackend                           //
// ---------------------------------------------------------------- //

RemoteBackend::RemoteBackend(CompileService &svc,
                             sim::Machine &machine,
                             uint32_t server_id, uint32_t install_core)
    : svc_(svc), machine_(machine), serverId_(server_id),
      installCore_(install_core),
      breaker_(CircuitBreaker::Config{}), jitterRng_(0),
      local_(machine, install_core)
{
}

void
RemoteBackend::drainFlipWindow(obs::HdrHistogram &into)
{
    into.merge(flipWindow_);
    flipWindow_.clear();
}

void
RemoteBackend::recordResolve(uint64_t send_cycle,
                             uint64_t ready_cycle)
{
    uint64_t resolve =
        ready_cycle > send_cycle ? ready_cycle - send_cycle : 0;
    cstats_.maxResolveCycles =
        std::max(cstats_.maxResolveCycles, resolve);
    flipWindow_.record(resolve);
}

size_t
RemoteBackend::stalledCount(uint64_t now, uint64_t age_bound) const
{
    size_t stalled = 0;
    for (const auto &[id, p] : pending_) {
        (void)id;
        if (p->sendCycle + age_bound <= now)
            ++stalled;
    }
    return stalled;
}

void
RemoteBackend::setRetryPolicy(const RetryPolicy &policy)
{
    policy_ = policy;
    breaker_ = CircuitBreaker(policy.breaker);
    // Per-server jitter stream: independent across servers, consumed
    // in this machine's event order, so it never couples servers.
    jitterRng_ =
        Rng(mix64(kJitterSeed) ^ mix64(serverId_ + 0x9e37));
}

void
RemoteBackend::compile(const runtime::CompileJob &job,
                       std::function<
                           void(const runtime::CompileOutcome &)> done)
{
    ++requests_;
    obs::metrics().counter("fleet.client.requests").inc();

    // Every request gets a distributed trace id at its origin; it
    // rides the job to the service and comes back in the outcome, so
    // the whole cross-server life of the request shares one id.
    runtime::CompileJob traced = job;
    traced.traceId = nextTraceId();

    if (!policy_.enabled) {
        // Fire-and-wait path: no timeouts, no fallback — the
        // pre-fault behavior, kept for direct-service tests and
        // calibration runs.
        uint64_t send = machine_.now();
        uint64_t arrival =
            send + svc_.config().net.requestLatencyCycles;
        if (obs::tracer().enabled()) {
            obs::tracer().complete(
                "fleet.client", "request hop", send, arrival,
                strformat("\"server\":%u,\"trace\":%llu", serverId_,
                          static_cast<unsigned long long>(
                              traced.traceId)));
        }
        svc_.submit(
            serverId_, traced, arrival,
            [this, send, done = std::move(done)](
                const runtime::CompileOutcome &out) {
                machine_.core(installCore_)
                    .stealCycles(kInstallCycles);
                recordResolve(send, out.readyCycle);
                if (obs::tracer().enabled()) {
                    obs::tracer().instant(
                        "fleet.client",
                        out.remoteHit ? "install cached variant" :
                                        "install compiled variant",
                        strformat("\"server\":%u,\"trace\":%llu",
                                  serverId_,
                                  static_cast<unsigned long long>(
                                      out.traceId)));
                    obs::tracer().complete(
                        "fleet.client", "flip", send, out.readyCycle,
                        strformat("\"server\":%u,\"trace\":%llu,"
                                  "\"outcome\":\"%s\"",
                                  serverId_,
                                  static_cast<unsigned long long>(
                                      out.traceId),
                                  out.remoteHit ? "hit" : "miss"));
                }
                runtime::CompileOutcome charged = out;
                charged.chargedCycles = kInstallCycles;
                done(charged);
            });
        return;
    }

    auto p = std::make_shared<PendingReq>();
    p->id = nextId_++;
    p->job = std::move(traced);
    p->done = std::move(done);
    p->sendCycle = machine_.now();
    pending_[p->id] = p;

    if (!breaker_.allowRequest(machine_.now())) {
        // Breaker open: don't even knock — degrade straight to the
        // local compiler until the open window elapses.
        ++cstats_.breakerShortCircuits;
        obs::metrics()
            .counter("fleet.client.breaker_short_circuits")
            .inc();
        localFallback(p, "breaker open");
        return;
    }
    startAttempt(p);
}

void
RemoteBackend::startAttempt(const PendingPtr &p)
{
    uint32_t attempt = p->attempts++;
    p->closed.push_back(0);
    ++p->outstanding;
    ++cstats_.remoteRequests;
    obs::metrics().counter("fleet.client.remote_attempts").inc();

    uint64_t now = machine_.now();
    uint64_t arrival = now + svc_.config().net.requestLatencyCycles;
    if (obs::tracer().enabled()) {
        obs::tracer().complete(
            "fleet.client", "request hop", now, arrival,
            strformat("\"server\":%u,\"trace\":%llu,\"attempt\":%u",
                      serverId_,
                      static_cast<unsigned long long>(p->job.traceId),
                      attempt));
    }
    // Rotate each attempt to a different member of the key's replica
    // set: if the primary shard is sick, the retry/hedge lands
    // elsewhere instead of queueing behind the same failure.
    svc_.submit(
        serverId_, p->job, arrival,
        [this, p, attempt](const runtime::CompileOutcome &out) {
            if (p->resolved)
                return; // stale: another attempt/fallback already won
            if (out.failed) {
                ++cstats_.failedResponses;
                obs::metrics()
                    .counter("fleet.client.failed_responses")
                    .inc();
                closeAttempt(p, attempt, "failure response");
                return;
            }
            if (out.corrupted) {
                // Payload checksum mismatch on delivery: unusable,
                // treated exactly like a failure (recompile
                // elsewhere), never installed.
                ++cstats_.corruptResponses;
                obs::metrics()
                    .counter("fleet.client.corrupt_responses")
                    .inc();
                closeAttempt(p, attempt, "corrupt payload");
                return;
            }
            resolveSuccess(p, out);
        },
        attempt);

    machine_.scheduleAfter(
        policy_.attemptTimeoutCycles, [this, p, attempt] {
            if (p->resolved || p->closed[attempt])
                return;
            ++cstats_.timeouts;
            obs::metrics().counter("fleet.client.timeouts").inc();
            closeAttempt(p, attempt, "timeout");
        });

    if (attempt == 0 && policy_.hedgeAfterCycles > 0) {
        machine_.scheduleAfter(policy_.hedgeAfterCycles, [this, p] {
            if (p->resolved || p->hedged || p->outstanding == 0)
                return;
            p->hedged = true;
            ++cstats_.hedges;
            obs::metrics().counter("fleet.client.hedges").inc();
            if (obs::tracer().enabled()) {
                obs::tracer().instant(
                    "fleet.client", "hedge request",
                    strformat("\"server\":%u,\"trace\":%llu",
                              serverId_,
                              static_cast<unsigned long long>(
                                  p->job.traceId)));
            }
            startAttempt(p);
        });
    }
}

void
RemoteBackend::closeAttempt(const PendingPtr &p, uint32_t attempt,
                            const char *reason)
{
    if (p->resolved || p->closed[attempt])
        return;
    p->closed[attempt] = 1;
    --p->outstanding;
    breaker_.onFailure(machine_.now());
    if (obs::tracer().enabled()) {
        obs::tracer().instant(
            "fleet.client", "attempt failed",
            strformat("\"server\":%u,\"reason\":\"%s\","
                      "\"trace\":%llu,\"attempt\":%u",
                      serverId_, reason,
                      static_cast<unsigned long long>(p->job.traceId),
                      attempt));
    }
    if (p->outstanding > 0)
        return; // a sibling (hedge) is still in flight
    escalate(p);
}

void
RemoteBackend::escalate(const PendingPtr &p)
{
    uint64_t now = machine_.now();
    if (p->attempts < policy_.maxAttempts &&
        breaker_.allowRequest(now)) {
        ++cstats_.retries;
        obs::metrics().counter("fleet.client.retries").inc();
        machine_.scheduleAfter(backoffCycles(p->attempts),
                               [this, p] {
                                   if (!p->resolved)
                                       startAttempt(p);
                               });
        return;
    }
    localFallback(p, p->attempts >= policy_.maxAttempts ?
                         "attempts exhausted" :
                         "breaker open");
}

uint64_t
RemoteBackend::backoffCycles(uint32_t attempt)
{
    uint32_t shift = std::min<uint32_t>(attempt > 0 ? attempt - 1 : 0,
                                        20);
    uint64_t base =
        std::min(policy_.backoffCapCycles,
                 policy_.backoffBaseCycles << shift);
    double mult = 1.0 - kJitterFrac +
        2.0 * kJitterFrac * jitterRng_.nextDouble();
    uint64_t cycles =
        static_cast<uint64_t>(static_cast<double>(base) * mult);
    return std::max<uint64_t>(1, cycles);
}

void
RemoteBackend::resolveSuccess(const PendingPtr &p,
                              const runtime::CompileOutcome &out)
{
    p->resolved = true;
    pending_.erase(p->id);
    breaker_.onSuccess(machine_.now());
    recordResolve(p->sendCycle, out.readyCycle);

    machine_.core(installCore_).stealCycles(kInstallCycles);
    if (obs::tracer().enabled()) {
        obs::tracer().instant(
            "fleet.client",
            out.remoteHit ? "install cached variant" :
                            "install compiled variant",
            strformat("\"server\":%u,\"trace\":%llu", serverId_,
                      static_cast<unsigned long long>(out.traceId)));
        // The whole-request span: compile() call to variant-ready,
        // however many ladder rungs it took.
        obs::tracer().complete(
            "fleet.client", "flip", p->sendCycle, out.readyCycle,
            strformat("\"server\":%u,\"trace\":%llu,"
                      "\"attempts\":%u,\"outcome\":\"%s\"",
                      serverId_,
                      static_cast<unsigned long long>(out.traceId),
                      p->attempts,
                      out.remoteHit ? "hit" : "miss"));
    }
    runtime::CompileOutcome charged = out;
    charged.chargedCycles = kInstallCycles;
    p->done(charged);
}

void
RemoteBackend::localFallback(const PendingPtr &p, const char *reason)
{
    p->resolved = true;
    pending_.erase(p->id);
    ++cstats_.localFallbacks;
    obs::metrics().counter("fleet.client.local_fallbacks").inc();
    if (obs::tracer().enabled()) {
        obs::tracer().instant(
            "fleet.client", "local fallback",
            strformat("\"server\":%u,\"reason\":\"%s\","
                      "\"trace\":%llu",
                      serverId_, reason,
                      static_cast<unsigned long long>(
                          p->job.traceId)));
    }
    // The bottom of the ladder: compile on this server, stealing
    // host cycles like the single-server model. Always resolves.
    local_.compile(p->job,
                   [this, p](const runtime::CompileOutcome &out) {
                       recordResolve(p->sendCycle, out.readyCycle);
                       if (obs::tracer().enabled()) {
                           obs::tracer().complete(
                               "fleet.client", "flip", p->sendCycle,
                               out.readyCycle,
                               strformat(
                                   "\"server\":%u,\"trace\":%llu,"
                                   "\"attempts\":%u,"
                                   "\"outcome\":\"local\"",
                                   serverId_,
                                   static_cast<unsigned long long>(
                                       out.traceId),
                                   p->attempts));
                       }
                       p->done(out);
                   });
}

} // namespace fleet
} // namespace protean
