/**
 * @file
 * The fleet and fleet-faults workloads.
 *
 * A run is a seeded draw of episodes from a fixed pool. An episode
 * constructs a 16-server soplex FleetSim (the set-up: one attach per
 * server) and advances it in fixed simulated slices; each slice is
 * one timed item. Episodes are short in simulated time so that the
 * service path (cold compiles, hits, failover) stays a large share of
 * the timed work instead of a start-up transient. Reference digests
 * exist for every (episode, slice) of the pool.
 */

#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>

#include "runtime/runtime.h"
#include "sim/machine.h"
#include "support/random.h"
#include "workloads.h"

namespace perfbench {

using namespace protean;

namespace {

constexpr uint32_t kServers = 16;
constexpr uint32_t kEpisodePool = 64;
constexpr uint32_t kSlices = 30;
constexpr double kSliceMs = 10.0;
/** Seconds of --seconds per episode (50 episodes at 30 s). Set-up,
 *  slices and teardown take 0.3-0.5 s on a shared 2.0 GHz x86-64
 *  Xeon VM with 2 lanes; the rest keeps the benchmark's total run
 *  time in budget. */
constexpr double kSecondsPerEpisode = 0.6;

fleet::FleetConfig
fleetConfig(bool faults, uint32_t episode, uint32_t lanes)
{
    fleet::FleetConfig cfg;
    cfg.numServers = kServers;
    cfg.batch = "soplex";
    cfg.remoteBackend = true;
    cfg.service.replication = 2;
    cfg.telemetry.enabled = true;
    cfg.telemetry.profiling = true;
    cfg.parallelWorkers = lanes;
    cfg.seed = 0xf1ee7000ULL + episode;
    if (faults) {
        // fleet_faults' intensity-1.0 mix and its hedged ladder.
        faults::FaultConfig &f = cfg.faults;
        f.shardCrashMeanCycles = 200000.0;
        f.shardRestartCycles = 20000;
        f.requestDropProb = 0.02;
        f.requestDelayProb = 0.05;
        f.responseCorruptProb = 0.01;
        f.cacheCorruptProb = 0.01;
        f.serverPauseProb = 0.01;
        fleet::RetryPolicy &p = cfg.retry;
        p.enabled = true;
        p.maxAttempts = 3;
        p.attemptTimeoutCycles = 60000;
        p.backoffBaseCycles = 2000;
        p.backoffCapCycles = 16000;
        p.hedgeAfterCycles = 30000;
    }
    return cfg;
}

std::vector<uint32_t>
drawEpisodes(const RunArgs &args)
{
    size_t n = std::max<size_t>(
        2, static_cast<size_t>(std::lround(args.seconds /
                                           kSecondsPerEpisode)));
    Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + 0xf1ee7);
    std::vector<uint32_t> out;
    while (out.size() < n) {
        std::vector<uint32_t> pool(kEpisodePool);
        for (uint32_t i = 0; i < kEpisodePool; ++i)
            pool[i] = i;
        for (size_t i = pool.size() - 1; i > 0; --i)
            std::swap(pool[i], pool[rng.nextBelow(i + 1)]);
        for (uint32_t e : pool) {
            if (out.size() < n)
                out.push_back(e);
        }
    }
    return out;
}

std::string
digestOf(const fleet::FleetStats &st)
{
    Digest d;
    for (uint64_t v :
         {st.deployRequests, st.serverCompiles, st.serverCompileCycles,
          st.remoteHits, st.hostBranches, st.stalledRequests,
          st.serverPauses, st.entryFlips, st.osrFlips, st.pendingFlips,
          st.worstEntryFlip, st.worstOsrFlip, st.worstPendingFlip,
          st.osrRedirects, st.osrPatches})
        d.add(v);
    const fleet::ServiceStats &s = st.service;
    for (uint64_t v :
         {s.requests, s.hits, s.misses, s.coalesced, s.evictions,
          s.batches, s.compiles, s.compileCycles, s.bytesOut, s.dropped,
          s.delayed, s.failed, s.replicaRoutes, s.replicaInstalls,
          s.corruptRejects, s.corruptResponses, s.crashes,
          s.lostEntries, s.corruptRecompiles, s.validatePasses,
          s.validateFails, s.validateEscalations, s.validateCycles,
          s.validateRecompiles})
        d.add(v);
    const fleet::ClientStats &c = st.client;
    for (uint64_t v :
         {c.remoteRequests, c.timeouts, c.retries, c.hedges,
          c.failedResponses, c.corruptResponses, c.localFallbacks,
          c.breakerShortCircuits, c.maxResolveCycles})
        d.add(v);
    return d.hex();
}

std::string
sliceKey(uint32_t episode, uint32_t slice)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "ep%02u/slice%02u", episode, slice);
    return buf;
}

/** Host-core instructions the fleet's profiling plane has seen. */
uint64_t
profiledInstructions(fleet::FleetSim &sim)
{
    uint64_t n = 0;
    for (const auto &[key, counts] :
         sim.telemetry()->fleetProfile().entries()) {
        (void)key;
        n += counts.instructions;
    }
    return n;
}

} // namespace

Report
runFleet(const RunArgs &args, bool faults, uint32_t lanes,
         Spans *spans, std::vector<fleet::FleetStats> *finals)
{
    Report rep;
    RefTable refs = readRefs(args.refsDir +
                             (faults ? "/fleet-faults.txt" :
                                       "/fleet.txt"));
    for (uint32_t e : drawEpisodes(args)) {
        Spans::Scope ep(spans, "fleet.episode");
        fleet::FleetConfig cfg = fleetConfig(faults, e, lanes);
        std::unique_ptr<fleet::FleetSim> sim;
        double t0 = wallNow();
        {
            Spans::Scope s(spans, "fleet.ctor");
            sim = std::make_unique<fleet::FleetSim>(cfg);
        }
        Item setup;
        setup.name = "setup";
        setup.seconds = wallNow() - t0;
        rep.setups.push_back(setup);

        fleet::FleetStats st;
        for (uint32_t s = 0; s < kSlices; ++s) {
            Item it;
            it.name = sliceKey(e, s);
            double c0 = cpuNow();
            double w0 = wallNow();
            try {
                Spans::Scope run(spans, "fleet.run");
                sim->run(kSliceMs);
            } catch (const std::exception &ex) {
                it.failed = true;
                it.why = std::string("threw: ") + ex.what();
            }
            it.seconds = wallNow() - w0;
            it.cpuS = cpuNow() - c0;

            Spans::Scope check(spans, "fleet.check");
            st = sim->stats();
            auto ref = refs.find(it.name);
            std::string want = ref == refs.end() || ref->second.empty() ?
                std::string("(none)") : ref->second[0];
            std::string got = digestOf(st);
            if (it.failed) {
                // the call itself failed; nothing to compare
            } else if (got != want) {
                it.failed = true;
                it.why = "digest " + got + " != reference " + want;
            } else if (st.stalledRequests > 0) {
                it.failed = true;
                it.why = "stalled requests at R=2";
            } else if (st.service.validateFails > 0) {
                it.failed = true;
                it.why = "validate rejected a variant with no "
                         "miscompile injected";
            }
            rep.items.push_back(it);
        }
        rep.instructions += profiledInstructions(*sim);
        if (finals)
            finals->push_back(st);
    }
    return rep;
}

SimCounts
fleetServerProbe()
{
    fleet::FleetConfig cfg = fleetConfig(false, 0, 1);
    std::unique_ptr<ProbeImage> img = makeProbeImage(cfg.batch);
    sim::Machine m(cfg.machine);
    sim::Process &proc = m.load(img->image, 0);
    runtime::RuntimeOptions opts;
    opts.runtimeCore = cfg.runtimeCore;
    runtime::ProteanRuntime rt(m, proc, opts);
    rt.enableProfiling();
    rt.start();
    m.runFor(m.msToCycles(kSlices * kSliceMs));
    return countsOf(m);
}

void
writeFleetRefs(const std::string &path, bool faults)
{
    std::ofstream out(path);
    out << "# " << (faults ? "fleet-faults" : "fleet")
        << " reference: episode/slice FleetStats digest\n";
    for (uint32_t e = 0; e < kEpisodePool; ++e) {
        fleet::FleetSim sim(fleetConfig(faults, e, 1));
        for (uint32_t s = 0; s < kSlices; ++s) {
            sim.run(kSliceMs);
            out << sliceKey(e, s) << ' ' << digestOf(sim.stats())
                << '\n';
        }
    }
}

} // namespace perfbench
