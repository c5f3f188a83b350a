#include "fleet/service.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/logging.h"
#include "validate/validator.h"

namespace protean {
namespace fleet {

namespace {

/** Response-payload bandwidth (variant code shipping). */
constexpr double kBytesPerCycle = 16.0;

} // namespace

uint64_t
NetworkModel::transferCycles(uint64_t bytes) const
{
    return static_cast<uint64_t>(
        (static_cast<double>(bytes) + kBytesPerCycle - 1.0) /
        kBytesPerCycle);
}

CompileService::CompileService(const ServiceConfig &cfg) : cfg_(cfg)
{
    if (cfg_.numShards == 0)
        fatal("CompileService: numShards must be positive");
    if (cfg_.replication == 0)
        fatal("CompileService: replication must be positive");
    shards_.resize(cfg_.numShards);
}

void
CompileService::setFaultPlan(faults::FaultPlan *plan)
{
    plan_ = plan;
}

void
CompileService::setValidator(const validate::Validator *v)
{
    validator_ = v;
}

uint32_t
CompileService::shardOf(uint64_t content_key) const
{
    return static_cast<uint32_t>(mix64(content_key) %
                                 cfg_.numShards);
}

std::vector<uint32_t>
CompileService::replicaSet(uint64_t content_key) const
{
    uint32_t r = std::min<uint32_t>(cfg_.replication, cfg_.numShards);
    uint32_t primary = shardOf(content_key);
    std::vector<uint32_t> set;
    set.reserve(r);
    for (uint32_t i = 0; i < r; ++i)
        set.push_back((primary + i) % cfg_.numShards);
    return set;
}

bool
CompileService::shardUp(uint32_t shard, uint64_t cycle) const
{
    if (shard >= shards_.size())
        panic("CompileService: bad shard %u", shard);
    return shards_[shard].downUntil <= cycle;
}

size_t
CompileService::shardOccupancy(uint32_t shard) const
{
    if (shard >= shards_.size())
        panic("CompileService: bad shard %u", shard);
    return shards_[shard].index.size();
}

bool
CompileService::shardHasKey(uint32_t shard, uint64_t key) const
{
    if (shard >= shards_.size())
        panic("CompileService: bad shard %u", shard);
    auto it = shards_[shard].index.find(key);
    return it != shards_[shard].index.end() && !it->second->corrupt;
}

double
CompileService::hitRate() const
{
    return stats_.hitRateOf();
}

void
CompileService::admit(Request r)
{
    ++stats_.requests;
    obs::metrics().counter("fleet.service.requests").inc();
    r.seq = seq_++;
    if (plan_ && plan_->enabled()) {
        if (plan_->dropRequest(r.seq)) {
            // Lost in transit: never routed, never answered. The
            // client's timeout is the only thing that notices.
            ++stats_.dropped;
            obs::metrics().counter("fleet.service.dropped").inc();
            if (obs::tracer().enabled()) {
                obs::tracer().instant(
                    "fleet.faults", "drop request",
                    strformat("\"server\":%u,\"seq\":%llu,"
                              "\"trace\":%llu",
                              r.server,
                              static_cast<unsigned long long>(r.seq),
                              static_cast<unsigned long long>(
                                  r.job.traceId)));
            }
            return;
        }
        uint64_t delay = plan_->requestDelay(r.seq);
        if (delay > 0) {
            r.arrival += delay;
            ++stats_.delayed;
            obs::metrics().counter("fleet.service.delayed").inc();
        }
    }
    pending_.push_back(std::move(r));
}

void
CompileService::submit(uint32_t server,
                       const runtime::CompileJob &job,
                       uint64_t arrival_cycle, Response done,
                       uint32_t route_offset)
{
    Request r;
    r.arrival = arrival_cycle;
    r.server = server;
    r.routeOffset = route_offset;
    r.job = job;
    r.done = std::move(done);
    if (defer_) {
        // Worker-thread path: stage only; sequencing, stats and
        // metrics all happen at flushDeferred() on the coordinator.
        std::lock_guard<std::mutex> lock(deferMu_);
        deferred_[server].push_back(std::move(r));
        return;
    }
    admit(std::move(r));
}

void
CompileService::setDeferSubmissions(bool on)
{
    defer_ = on;
}

void
CompileService::flushDeferred()
{
    if (defer_)
        panic("CompileService: flushDeferred() while still "
              "deferring");
    std::map<uint32_t, std::vector<Request>> staged;
    staged.swap(deferred_);
    for (auto &entry : staged) {
        for (Request &r : entry.second)
            admit(std::move(r));
    }
}

void
CompileService::failRequest(Request &r, uint64_t cycle,
                            const char *reason)
{
    runtime::CompileOutcome out;
    out.startCycle = cycle;
    out.readyCycle = cycle + cfg_.net.responseLatencyCycles;
    out.failed = true;
    out.traceId = r.job.traceId;
    ++stats_.failed;
    obs::metrics().counter("fleet.service.failures").inc();
    if (obs::tracer().enabled()) {
        obs::tracer().instant(
            "fleet.faults", "fail request",
            strformat("\"server\":%u,\"reason\":\"%s\","
                      "\"trace\":%llu",
                      r.server, reason,
                      static_cast<unsigned long long>(
                          r.job.traceId)));
        obs::tracer().complete(
            "fleet.faults", "response hop", cycle, out.readyCycle,
            strformat("\"server\":%u,\"trace\":%llu", r.server,
                      static_cast<unsigned long long>(
                          r.job.traceId)));
    }
    r.done(out);
}

void
CompileService::advance(uint64_t cycle)
{
    if (!deferred_.empty())
        panic("CompileService: advance() with unflushed deferred "
              "submissions");
    // Route everything that has reached the service, in strict
    // (arrival, submission) order, preserving per-shard arrival
    // order. Later-arriving requests stay pending.
    std::stable_sort(pending_.begin(), pending_.end(),
                     [](const Request &a, const Request &b) {
                         return a.arrival != b.arrival ?
                             a.arrival < b.arrival : a.seq < b.seq;
                     });
    std::vector<Request> later;
    for (auto &r : pending_) {
        if (r.arrival > cycle) {
            later.push_back(std::move(r));
            continue;
        }
        // Health-based routing: first live member of the key's
        // replica set, rotated by the request's route offset (hedges
        // and retries prefer a different shard than attempt zero).
        // The fault plan's schedule is the health oracle, so routing
        // does not depend on shard-loop processing order below.
        std::vector<uint32_t> set = replicaSet(r.job.contentKey);
        int target = -1;
        for (size_t i = 0; i < set.size(); ++i) {
            uint32_t s = set[(r.routeOffset + i) % set.size()];
            if (!plan_ || !plan_->shardDownAt(s, r.arrival)) {
                target = static_cast<int>(s);
                if (i > 0) {
                    ++stats_.replicaRoutes;
                    obs::metrics()
                        .counter("fleet.service.replica_routes")
                        .inc();
                }
                break;
            }
        }
        if (target < 0) {
            // Whole replica set down: explicit failure, so the
            // client retries or falls back instead of stalling.
            failRequest(r, r.arrival, "unavailable");
            continue;
        }
        shards_[static_cast<uint32_t>(target)].queue.push_back(
            std::move(r));
    }
    pending_ = std::move(later);

    for (uint32_t s = 0; s < shards_.size(); ++s)
        advanceShard(s, cycle);
}

void
CompileService::advanceShard(uint32_t s, uint64_t cycle)
{
    Shard &sh = shards_[s];
    // Interleave compile completions, injected crashes, and batch
    // closes in cycle order. Ties: completions first (a just-finished
    // variant both beats the crash out the door and is a cache hit
    // for a batch closing the same cycle), then crashes (a batch
    // closing as the shard dies is lost), then closes.
    for (;;) {
        uint64_t next_done = sh.completions.empty() ?
            UINT64_MAX : sh.completions.begin()->first;
        const faults::ShardOutage *outage =
            plan_ ? plan_->peekOutage(s, cycle) : nullptr;
        uint64_t next_crash = outage ? outage->at : UINT64_MAX;
        uint64_t next_close = sh.queue.empty() ?
            UINT64_MAX :
            sh.queue.front().arrival + kBatchWindowCycles;
        if (next_done <= next_crash && next_done <= next_close &&
            next_done <= cycle) {
            installCompletions(s, sh, next_done);
        } else if (next_crash <= next_close &&
                   next_crash <= cycle) {
            crashShard(s, sh, *outage);
            plan_->consumeOutage(s);
        } else if (next_close <= cycle) {
            resolveBatch(s, sh, next_close);
        } else {
            break;
        }
    }
}

void
CompileService::crashShard(uint32_t s, Shard &sh,
                           const faults::ShardOutage &outage)
{
    ++stats_.crashes;
    obs::metrics().counter("fleet.service.crashes").inc();
    if (obs::tracer().enabled()) {
        obs::tracer().complete(
            "fleet.faults", strformat("shard%u down", s), outage.at,
            outage.until,
            strformat("\"lost_entries\":%zu", sh.index.size()));
    }

    stats_.lostEntries += sh.index.size();
    obs::metrics().counter("fleet.service.lost_entries")
        .inc(sh.index.size());
    sh.lru.clear();
    sh.index.clear();

    // Everything stranded on this shard — queued requests, the
    // misses that started in-flight compiles, and their coalesced
    // riders — gets an explicit failure response at the crash cycle,
    // in deterministic (arrival, seq) order. Queued requests with
    // arrivals past the restart were routed here *because* the
    // schedule says the shard will be back; they survive. (Arrivals
    // inside the outage window are never routed here at all.)
    std::vector<Request> stranded;
    std::deque<Request> survivors;
    for (auto &r : sh.queue) {
        if (r.arrival >= outage.until)
            survivors.push_back(std::move(r));
        else
            stranded.push_back(std::move(r));
    }
    sh.queue = std::move(survivors);
    for (auto &[key, ws] : sh.waiters) {
        (void)key;
        for (Waiter &w : ws)
            stranded.push_back(std::move(w.req));
    }
    sh.waiters.clear();
    sh.inflight.clear();
    sh.completions.clear();
    std::sort(stranded.begin(), stranded.end(),
              [](const Request &a, const Request &b) {
                  return a.arrival != b.arrival ?
                      a.arrival < b.arrival : a.seq < b.seq;
              });
    for (Request &r : stranded)
        failRequest(r, outage.at, "shard crash");

    sh.downUntil = outage.until;
    sh.backendFree = outage.until;
}

void
CompileService::installCompletions(uint32_t s, Shard &sh,
                                   uint64_t cycle)
{
    while (!sh.completions.empty() &&
           sh.completions.begin()->first <= cycle) {
        auto it = sh.completions.begin();
        uint64_t done = it->first;
        // The map node must outlive installs (installKey touches
        // only lru/index, never completions, but keys are answered
        // after potential eviction churn).
        std::vector<uint64_t> keys = std::move(it->second);
        sh.completions.erase(it);
        for (uint64_t key : keys) {
            auto inflight = sh.inflight.find(key);
            bool known = inflight != sh.inflight.end();
            uint64_t bytes = known ? inflight->second.bytes : 0;
            runtime::CompileJob job;
            uint32_t attempt = 0;
            if (known) {
                job = std::move(inflight->second.job);
                attempt = inflight->second.attempt;
            }
            sh.inflight.erase(key);

            // Translation-validation install gate (DESIGN.md §12):
            // the finished build must be *proved* equivalent to its
            // request before any shard caches it or any waiter gets
            // it. The fault plan decides — purely from
            // (seed, key, attempt) — whether this build emerged
            // miscompiled; the validator re-derives the candidate,
            // applies that mutation, and judges it. Validation
            // cycles extend the shard backend like compile cycles.
            uint64_t install_at = done;
            if (validator_ && known) {
                faults::MiscompileSpec spec;
                const faults::MiscompileSpec *inject =
                    plan_ && plan_->miscompile(key, attempt, &spec) ?
                    &spec : nullptr;
                validate::Verdict v =
                    validator_->validate(job, inject);
                install_at = done + v.cycles;
                sh.backendFree =
                    std::max(sh.backendFree, install_at);
                stats_.validateCycles += v.cycles;
                obs::metrics().counter("fleet.validate.cycles")
                    .inc(v.cycles);
                if (v.escalated) {
                    ++stats_.validateEscalations;
                    obs::metrics()
                        .counter("fleet.validate.escalate")
                        .inc();
                }
                if (v.injectedApplied) {
                    ++stats_.miscompilesInjected;
                    obs::metrics()
                        .counter("fleet.validate.miscompile_injected")
                        .inc();
                }
                if (!v.pass) {
                    ++stats_.validateFails;
                    obs::metrics().counter("fleet.validate.fail")
                        .inc();
                    if (obs::tracer().enabled()) {
                        obs::tracer().instant(
                            strformat("fleet.shard%u", s),
                            "validate reject",
                            strformat(
                                "\"key\":%llu,\"tier\":%u,"
                                "\"reason\":\"%s\"",
                                static_cast<unsigned long long>(key),
                                v.tier, v.reason.c_str()));
                    }
                    if (attempt + 1 >= kMaxCompileAttempts) {
                        // Give up on this key: answer the waiters
                        // with explicit failures so clients retry
                        // or fall back to a local compile.
                        auto ws = sh.waiters.find(key);
                        if (ws != sh.waiters.end()) {
                            std::vector<Waiter> waiters =
                                std::move(ws->second);
                            sh.waiters.erase(ws);
                            for (Waiter &w : waiters)
                                failRequest(w.req, install_at,
                                            "validate reject");
                        }
                    } else {
                        // Reject-and-recompile: the bad build is
                        // discarded, a fresh attempt queues on the
                        // same serial backend, and the waiters stay
                        // registered for its completion.
                        ++stats_.validateRecompiles;
                        uint64_t start =
                            std::max(install_at, sh.backendFree);
                        uint64_t redone = start + job.costCycles;
                        sh.backendFree = redone;
                        sh.compileCycles += job.costCycles;
                        ++stats_.compiles;
                        stats_.compileCycles += job.costCycles;
                        obs::metrics()
                            .counter("fleet.service.compiles")
                            .inc();
                        obs::metrics()
                            .counter("fleet.service.compile_cycles")
                            .inc(job.costCycles);
                        obs::metrics()
                            .histogram(
                                "fleet.service.compile_cycles_hist")
                            .observe(static_cast<double>(
                                job.costCycles));
                        sh.completions[redone].push_back(key);
                        sh.inflight[key] = Shard::Inflight{
                            redone, bytes, std::move(job),
                            attempt + 1};
                    }
                    continue;
                }
                ++stats_.validatePasses;
                obs::metrics().counter("fleet.validate.pass").inc();
                if (v.injectedApplied) {
                    // The gate passed a build the plan says was
                    // miscompiled: a bad install. bench/fleet_faults
                    // gates on this staying zero.
                    ++stats_.miscompilesInstalled;
                    obs::metrics()
                        .counter(
                            "fleet.validate.miscompile_installed")
                        .inc();
                }
            }

            installKey(s, sh, key, bytes, install_at);

            // Replication: mirror the fresh variant onto the other
            // live members of the key's replica set so a
            // single-shard crash loses no unique work. Skipped when
            // the target is down at install time or crashed after
            // the install would have landed (the copy would have
            // been wiped anyway — same final state, any processing
            // order).
            for (uint32_t t : replicaSet(key)) {
                if (t == s)
                    continue;
                Shard &tsh = shards_[t];
                if ((plan_ && plan_->shardDownAt(t, install_at)) ||
                    tsh.downUntil > install_at)
                    continue;
                if (tsh.index.count(key))
                    continue;
                installKey(t, tsh, key, bytes, install_at);
                ++stats_.replicaInstalls;
                obs::metrics()
                    .counter("fleet.service.replica_installs")
                    .inc();
            }

            // Answer everyone waiting on this compile: the miss
            // that started it, then its coalesced riders, in
            // arrival order.
            auto ws = sh.waiters.find(key);
            if (ws == sh.waiters.end())
                continue;
            std::vector<Waiter> waiters = std::move(ws->second);
            sh.waiters.erase(ws);
            for (Waiter &w : waiters) {
                uint64_t ship = w.req.job.codeBytes;
                uint64_t ready = install_at +
                    cfg_.net.responseLatencyCycles +
                    cfg_.net.transferCycles(ship);
                runtime::CompileOutcome out;
                out.startCycle = w.startCycle;
                out.readyCycle = ready;
                out.remoteHit = !w.isMiss;
                respond(w.req, out,
                        w.isMiss ? "miss" : "coalesced", s);
            }
        }
    }
}

void
CompileService::installKey(uint32_t s, Shard &sh, uint64_t key,
                           uint64_t code_bytes, uint64_t cycle)
{
    if (cfg_.shardCapacity == 0)
        return; // cache disabled: compile results are not retained
    if (sh.index.count(key))
        return;
    if (sh.index.size() >= cfg_.shardCapacity) {
        uint64_t victim_key = sh.lru.back().key;
        sh.index.erase(victim_key);
        sh.lru.pop_back();
        ++stats_.evictions;
        obs::metrics().counter("fleet.service.evictions").inc();
        if (obs::tracer().enabled()) {
            obs::tracer().instant(
                strformat("fleet.shard%u", s), "evict",
                strformat("\"key\":%llu",
                          static_cast<unsigned long long>(
                              victim_key)));
        }
    }
    CacheEntry entry{key, code_bytes, false};
    if (plan_ && plan_->corruptCachedEntry(key, cycle)) {
        // At-rest corruption: the entry sits in the cache with a bad
        // checksum until the next hit rejects it.
        entry.corrupt = true;
    }
    sh.lru.push_front(entry);
    sh.index[key] = sh.lru.begin();
}

void
CompileService::respond(Request &r, runtime::CompileOutcome out,
                        const char *verdict, uint32_t shard)
{
    const NetworkModel &net = cfg_.net;
    if (plan_ && plan_->corruptResponse(r.seq)) {
        out.corrupted = true;
        ++stats_.corruptResponses;
        obs::metrics().counter("fleet.service.corrupt_responses")
            .inc();
        verdict = "corrupt";
    }
    stats_.bytesOut += r.job.codeBytes;
    out.traceId = r.job.traceId;
    uint64_t send = r.arrival >= net.requestLatencyCycles ?
        r.arrival - net.requestLatencyCycles : 0;
    obs::metrics().histogram("fleet.service.latency")
        .observe(static_cast<double>(out.readyCycle - send));
    if (obs::tracer().enabled()) {
        std::string lane = strformat("fleet.shard%u", shard);
        obs::tracer().complete(
            lane, strformat("request %s", r.job.name.c_str()),
            r.arrival, out.readyCycle,
            strformat("\"server\":%u,\"outcome\":\"%s\","
                      "\"trace\":%llu",
                      r.server, verdict,
                      static_cast<unsigned long long>(
                          r.job.traceId)));
        // The service -> client network hop (latency + payload
        // transfer) as its own span, so a slow flip visibly
        // decomposes into queue/compile/network time.
        uint64_t hop = net.responseLatencyCycles +
            net.transferCycles(r.job.codeBytes);
        uint64_t hop_start =
            out.readyCycle >= hop ? out.readyCycle - hop : 0;
        obs::tracer().complete(
            lane, "response hop", hop_start, out.readyCycle,
            strformat("\"server\":%u,\"trace\":%llu,\"bytes\":%llu",
                      r.server,
                      static_cast<unsigned long long>(r.job.traceId),
                      static_cast<unsigned long long>(
                          r.job.codeBytes)));
    }
    r.done(out);
}

void
CompileService::resolveBatch(uint32_t s, Shard &sh, uint64_t close)
{
    std::vector<Request> batch;
    while (!sh.queue.empty() && sh.queue.front().arrival <= close) {
        batch.push_back(std::move(sh.queue.front()));
        sh.queue.pop_front();
    }
    ++stats_.batches;
    obs::metrics().counter("fleet.service.batches").inc();
    obs::metrics().histogram("fleet.service.batch_size")
        .observe(static_cast<double>(batch.size()));
    const bool traced = obs::tracer().enabled();
    std::string lane;
    if (traced) {
        lane = strformat("fleet.shard%u", s);
        obs::tracer().instant(
            lane, "batch_close",
            strformat("\"size\":%zu", batch.size()));
    }

    const NetworkModel &net = cfg_.net;
    for (Request &r : batch) {
        uint64_t key = r.job.contentKey;
        if (traced && close > r.arrival) {
            // Time spent queued at the shard before its batch
            // closed: the first cross-server segment of the
            // request's trace.
            obs::tracer().complete(
                lane, "queue wait", r.arrival, close,
                strformat("\"server\":%u,\"trace\":%llu", r.server,
                          static_cast<unsigned long long>(
                              r.job.traceId)));
        }

        bool corrupt_reject = false;
        auto hit = sh.index.find(key);
        if (hit != sh.index.end() && hit->second->corrupt) {
            // Checksum verification: the cached variant is
            // corrupted at rest. Reject it and recompile instead of
            // shipping garbage.
            ++stats_.corruptRejects;
            obs::metrics().counter("fleet.service.corrupt_rejects")
                .inc();
            if (traced) {
                obs::tracer().instant(
                    lane, "checksum reject",
                    strformat("\"key\":%llu,\"trace\":%llu",
                              static_cast<unsigned long long>(key),
                              static_cast<unsigned long long>(
                                  r.job.traceId)));
            }
            sh.lru.erase(hit->second);
            sh.index.erase(hit);
            hit = sh.index.end();
            corrupt_reject = true;
        }
        auto inflight = sh.inflight.find(key);
        if (hit != sh.index.end()) {
            // Cache hit: touch LRU, ship the cached variant now.
            sh.lru.splice(sh.lru.begin(), sh.lru, hit->second);
            uint64_t done = close + kLookupCycles;
            runtime::CompileOutcome out;
            out.startCycle = close;
            out.readyCycle = done + net.responseLatencyCycles +
                net.transferCycles(hit->second->codeBytes);
            out.remoteHit = true;
            ++stats_.hits;
            obs::metrics().counter("fleet.service.hits").inc();
            respond(r, out, "hit", s);
        } else if (inflight != sh.inflight.end()) {
            // Another server's miss is already compiling this key:
            // coalesce onto its completion (answered when the
            // compile finishes — or failed if the shard crashes
            // first).
            ++stats_.coalesced;
            obs::metrics().counter("fleet.service.coalesced").inc();
            sh.waiters[key].push_back(
                Waiter{std::move(r), false, close});
        } else {
            // Miss: compile on this shard's serial backend. The
            // requester waits on the completion like any coalesced
            // rider, so a crash mid-compile strands it (explicit
            // failure) rather than pretending the variant shipped.
            uint64_t start = std::max(close + kLookupCycles,
                                      sh.backendFree);
            uint64_t done = start + r.job.costCycles;
            sh.backendFree = done;
            sh.inflight[key] =
                Shard::Inflight{done, r.job.codeBytes, r.job, 0};
            sh.completions[done].push_back(key);
            sh.compileCycles += r.job.costCycles;
            ++stats_.compiles;
            stats_.compileCycles += r.job.costCycles;
            if (corrupt_reject) {
                // Not a miss: the key *was* cached, its payload was
                // just corrupt at rest. Accounted separately so the
                // hit rate reflects cache coverage, not disk rot.
                ++stats_.corruptRecompiles;
                obs::metrics()
                    .counter("fleet.cache.corrupt_reject")
                    .inc();
            } else {
                ++stats_.misses;
                obs::metrics().counter("fleet.service.misses").inc();
            }
            obs::metrics().counter("fleet.service.compiles").inc();
            obs::metrics().counter("fleet.service.compile_cycles")
                .inc(r.job.costCycles);
            obs::metrics()
                .histogram("fleet.service.compile_cycles_hist")
                .observe(static_cast<double>(r.job.costCycles));
            if (traced) {
                obs::tracer().complete(
                    lane,
                    strformat("compile %s", r.job.name.c_str()),
                    start, done,
                    strformat("\"key\":%llu,\"server\":%u,"
                              "\"trace\":%llu",
                              static_cast<unsigned long long>(key),
                              r.server,
                              static_cast<unsigned long long>(
                                  r.job.traceId)));
            }
            sh.waiters[key].push_back(
                Waiter{std::move(r), true, start});
        }
    }
}

void
CompileService::exportObsMetrics() const
{
    obs::MetricsRegistry &reg = obs::metrics();
    for (uint32_t s = 0; s < shards_.size(); ++s) {
        std::string p = strformat("fleet.shard%u.", s);
        reg.gauge(p + "occupancy")
            .set(static_cast<double>(shards_[s].index.size()));
        reg.gauge(p + "compile_cycles")
            .set(static_cast<double>(shards_[s].compileCycles));
    }
    reg.gauge("fleet.service.hit_rate").set(hitRate());
}

} // namespace fleet
} // namespace protean
