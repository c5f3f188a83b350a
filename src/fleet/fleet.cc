#include "fleet/fleet.h"

#include <algorithm>
#include <set>

#include "obs/metrics.h"
#include "pcc/pcc.h"
#include "support/logging.h"
#include "workloads/registry.h"

namespace protean {
namespace fleet {

namespace {

ir::Module
buildFleetModule(const FleetConfig &cfg)
{
    workloads::BatchSpec spec = workloads::batchSpec(cfg.batch);
    return workloads::buildBatch(spec);
}

} // namespace

FleetSim::FleetSim(const FleetConfig &cfg)
    : cfg_(cfg), module_(buildFleetModule(cfg)),
      image_(pcc::compile(module_)), svc_(cfg.service), cluster_(svc_),
      slots_(pcc::chooseVirtualizedCallees(
          module_, pcc::EdgePolicy::MultiBlockCallees))
{
    if (cfg_.numServers == 0)
        fatal("FleetSim: numServers must be > 0");
    if (cfg_.faults.anyEnabled()) {
        plan_ = std::make_unique<faults::FaultPlan>(cfg_.faults);
        svc_.setFaultPlan(plan_.get());
        cluster_.setFaultPlan(plan_.get());
    }
    if (cfg_.validate.mode != validate::Mode::Off &&
        cfg_.remoteBackend) {
        // The install gate. It re-derives candidates under the same
        // module/image/slots every server lowers with, so the
        // structural tier's reference is exactly what a correct
        // backend must produce.
        validator_ = std::make_unique<validate::Validator>(
            module_, image_, slots_, cfg_.validate);
        svc_.setValidator(validator_.get());
    }

    // One seed stream forked per server, in server order, so every
    // server's arrival process is independent yet the whole fleet is
    // reproducible from cfg.seed.
    Rng seeder(cfg_.seed);
    servers_.reserve(cfg_.numServers);
    for (uint32_t i = 0; i < cfg_.numServers; ++i) {
        auto s = std::make_unique<Server>();
        s->rng = seeder.fork();
        s->machine = std::make_unique<sim::Machine>(cfg_.machine);
        sim::Process &proc = s->machine->load(image_, 0);
        runtime::RuntimeOptions opts;
        opts.runtimeCore = cfg_.runtimeCore;
        opts.osr = cfg_.osr;
        if (cfg_.remoteBackend) {
            s->backend = std::make_unique<RemoteBackend>(
                svc_, *s->machine, i, cfg_.runtimeCore);
            if (cfg_.retry.enabled)
                s->backend->setRetryPolicy(cfg_.retry);
            opts.compileBackend = s->backend.get();
        }
        s->rt = std::make_unique<runtime::ProteanRuntime>(
            *s->machine, proc, opts);
        cluster_.addMachine(*s->machine);
        servers_.push_back(std::move(s));
    }
    buildCatalog(servers_.front()->rt->binaryIr());
    for (auto &s : servers_)
        scheduleNextRequest(*s);
    cluster_.setParallel(cfg_.parallelWorkers);

    if (cfg_.telemetry.enabled) {
        hub_ = std::make_unique<TelemetryHub>(cfg_.telemetry, svc_,
                                              cluster_);
        // Server registration order matches server ids, so per-window
        // scrape order is the serial stepping order.
        for (auto &s : servers_) {
            if (cfg_.telemetry.profiling) {
                // Continuous profiling rides the monitoring tick, so
                // profiled fleets run the tick loop; its modeled cost
                // (sampling + analysis cycles) is charged like any
                // other runtime work.
                s->rt->enableProfiling();
                s->rt->start();
            }
            hub_->addServer(s->backend.get(), s->machine.get(),
                            s->rt->profiler(), s->rt.get());
        }
        hub_->setStallBound(ladderBoundCycles());
        cluster_.setBarrierHook(
            [this](uint64_t cycle) { hub_->onBarrier(cycle); });
    }
}

FleetSim::~FleetSim() = default;

void
FleetSim::buildCatalog(const runtime::BinaryIr &ir)
{
    // The catalog is derived from the binary alone, so every server
    // (running the same binary) would derive the same one — which is
    // why requests collide fleet-wide and the service's content
    // addressing pays off.
    std::vector<ir::FuncId> funcs;
    funcs.reserve(slots_.size());
    for (const auto &[f, slot] : slots_) {
        (void)slot;
        funcs.push_back(f);
    }
    std::sort(funcs.begin(), funcs.end());

    for (ir::FuncId f : funcs) {
        if (cfg_.hotFuncsOnly &&
            module_.function(f).name().rfind("hot_", 0) != 0)
            continue;
        const std::vector<ir::LoadId> &loads = ir.loads(f);
        if (loads.empty()) {
            Directive d;
            d.func = f;
            d.mask = BitVector(module_.numLoads());
            catalog_.push_back(std::move(d));
            continue;
        }
        // Nested prefix masks of increasing NT aggressiveness — the
        // shapes PC3D's peeling search actually deploys.
        std::set<size_t> depths;
        for (uint32_t k = 1; k <= cfg_.masksPerFunction; ++k) {
            size_t n = (loads.size() * k + cfg_.masksPerFunction - 1) /
                cfg_.masksPerFunction;
            depths.insert(std::max<size_t>(1, n));
        }
        for (size_t n : depths) {
            Directive d;
            d.func = f;
            d.mask = BitVector(module_.numLoads());
            for (size_t i = 0; i < n; ++i)
                d.mask.set(loads[i]);
            catalog_.push_back(std::move(d));
        }
    }
    if (catalog_.empty())
        fatal("FleetSim: batch '%s' has no virtualized functions",
              cfg_.batch.c_str());
}

void
FleetSim::scheduleNextRequest(Server &s)
{
    double wait_ms = s.rng.nextExponential(cfg_.meanRequestMs);
    uint64_t delay =
        std::max<uint64_t>(1, s.machine->msToCycles(wait_ms));
    s.machine->scheduleAfter(delay, [this, &s] {
        const Directive &d = catalog_[s.rng.nextBelow(catalog_.size())];
        ++s.deploys;
        s.rt->deployVariant(d.func, d.mask);
        scheduleNextRequest(s);
    });
}

void
FleetSim::run(double ms)
{
    cluster_.runFor(cfg_.machine.msToCycles(ms));
}

void
FleetSim::flushTelemetry()
{
    if (hub_)
        hub_->flush(cluster_.now());
}

uint64_t
FleetSim::ladderBoundCycles() const
{
    // Each attempt can burn a full timeout plus a (jittered, capped)
    // backoff; the final rung is the local fallback, which resolves
    // within one queued compile. Padded with a few quanta of slack so
    // barrier granularity never produces a false stall.
    const RetryPolicy &r = cfg_.retry;
    uint64_t per_attempt =
        r.attemptTimeoutCycles + 2 * r.backoffCapCycles;
    uint64_t attempts = r.enabled ? r.maxAttempts : 1;
    return attempts * per_attempt + 8 * cluster_.quantum() + 100000;
}

uint64_t
FleetSim::stalledRequests() const
{
    uint64_t stalled = 0;
    uint64_t bound = ladderBoundCycles();
    for (const auto &s : servers_) {
        if (s->backend)
            stalled += s->backend->stalledCount(cluster_.now(),
                                                bound);
    }
    return stalled;
}

FleetStats
FleetSim::stats() const
{
    FleetStats st;
    st.service = svc_.stats();
    st.serverPauses = cluster_.pausesApplied();
    for (const auto &s : servers_) {
        st.deployRequests += s->deploys;
        const runtime::RuntimeCompiler &rc = s->rt->compiler();
        st.serverCompiles += rc.compileCount();
        st.serverCompileCycles += rc.compileCycles();
        st.remoteHits += rc.remoteHits();
        st.hostBranches += s->machine->core(0).hpm().branches;
        // Pending flips are censored at the cluster barrier clock,
        // which serial and parallel runs agree on byte-for-byte.
        runtime::FlipEffectStats fe =
            s->rt->flipEffectStats(cluster_.now());
        st.entryFlips += fe.entryFlips;
        st.osrFlips += fe.osrFlips;
        st.pendingFlips += fe.pending;
        st.worstEntryFlip = std::max(st.worstEntryFlip,
                                     fe.worstEntry);
        st.worstOsrFlip = std::max(st.worstOsrFlip, fe.worstOsr);
        st.worstPendingFlip = std::max(st.worstPendingFlip,
                                       fe.worstPending);
        st.osrRedirects += s->rt->osrRedirects();
        st.osrPatches += s->rt->osrPatchesWritten();
        if (s->backend) {
            const ClientStats &cs = s->backend->clientStats();
            st.client.remoteRequests += cs.remoteRequests;
            st.client.timeouts += cs.timeouts;
            st.client.retries += cs.retries;
            st.client.hedges += cs.hedges;
            st.client.failedResponses += cs.failedResponses;
            st.client.corruptResponses += cs.corruptResponses;
            st.client.localFallbacks += cs.localFallbacks;
            st.client.breakerShortCircuits +=
                cs.breakerShortCircuits;
            st.client.maxResolveCycles = std::max(
                st.client.maxResolveCycles, cs.maxResolveCycles);
        }
    }
    st.stalledRequests = stalledRequests();
    return st;
}

void
FleetSim::exportObsMetrics() const
{
    // Per-machine exportObsMetrics() publishes under shared names
    // with max semantics — wrong summed across a fleet — so the fleet
    // publishes its own aggregates instead.
    svc_.exportObsMetrics();
    FleetStats st = stats();
    obs::MetricsRegistry &m = obs::metrics();
    m.gauge("fleet.sim.servers").set(
        static_cast<double>(cfg_.numServers));
    m.gauge("fleet.sim.catalog_size").set(
        static_cast<double>(catalog_.size()));
    m.gauge("fleet.sim.deploy_requests").set(
        static_cast<double>(st.deployRequests));
    m.gauge("fleet.sim.server_compiles").set(
        static_cast<double>(st.serverCompiles));
    m.gauge("fleet.sim.server_compile_cycles").set(
        static_cast<double>(st.serverCompileCycles));
    m.gauge("fleet.sim.total_compile_cycles").set(
        static_cast<double>(st.totalCompileCycles()));
    m.gauge("fleet.sim.host_branches").set(
        static_cast<double>(st.hostBranches));
    m.gauge("fleet.sim.dedup_factor").set(st.dedupFactor());
    m.gauge("fleet.sim.stalled_requests").set(
        static_cast<double>(st.stalledRequests));
    m.gauge("fleet.sim.server_pauses").set(
        static_cast<double>(st.serverPauses));
    m.gauge("fleet.sim.local_fallbacks").set(
        static_cast<double>(st.client.localFallbacks));
    m.gauge("fleet.sim.retries").set(
        static_cast<double>(st.client.retries));
    m.gauge("fleet.sim.timeouts").set(
        static_cast<double>(st.client.timeouts));
    m.gauge("fleet.sim.max_resolve_cycles").set(
        static_cast<double>(st.client.maxResolveCycles));
    m.gauge("fleet.sim.entry_flips").set(
        static_cast<double>(st.entryFlips));
    m.gauge("fleet.sim.osr_flips").set(
        static_cast<double>(st.osrFlips));
    m.gauge("fleet.sim.pending_flips").set(
        static_cast<double>(st.pendingFlips));
    m.gauge("fleet.sim.worst_flip_effect").set(
        static_cast<double>(st.worstFlipEffect()));
    m.gauge("fleet.sim.osr_redirects").set(
        static_cast<double>(st.osrRedirects));
    m.gauge("fleet.sim.osr_patches").set(
        static_cast<double>(st.osrPatches));
    if (hub_)
        hub_->exportObsMetrics();
}

} // namespace fleet
} // namespace protean
