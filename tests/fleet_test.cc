/**
 * @file
 * Tests for the fleet compilation service: content-addressed cache
 * hit/miss/eviction, shard routing stability, miss coalescing, the
 * lockstep cluster, and the acceptance properties of the full fleet
 * simulation (dedup across servers, byte-identical double runs).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "fleet/fleet.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace protean {
namespace fleet {
namespace {

/** Fleet state is observed through the global registry/tracer, so
 *  every test starts clean. */
class FleetTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obs::metrics().reset();
        obs::tracer().clear();
    }

    void
    TearDown() override
    {
        obs::tracer().clear();
        obs::metrics().reset();
    }
};

runtime::CompileJob
job(uint64_t key, uint64_t cost = 1000, uint64_t bytes = 256)
{
    runtime::CompileJob j;
    j.contentKey = key;
    j.func = 0;
    j.costCycles = cost;
    j.codeBytes = bytes;
    j.name = "f";
    return j;
}

ServiceConfig
oneShard(size_t capacity = 4)
{
    ServiceConfig cfg;
    cfg.numShards = 1;
    cfg.shardCapacity = capacity;
    return cfg;
}

TEST_F(FleetTest, MissThenHit)
{
    CompileService svc(oneShard());
    runtime::CompileOutcome first, second;
    svc.submit(0, job(7), 100,
               [&](const runtime::CompileOutcome &o) { first = o; });
    svc.advance(50000);
    EXPECT_FALSE(first.remoteHit);
    EXPECT_GT(first.readyCycle, first.startCycle);
    EXPECT_EQ(svc.stats().misses, 1u);
    EXPECT_EQ(svc.stats().compiles, 1u);

    // Same content key from another server, long after the compile
    // finished: a cache hit, served without any compile cycles.
    svc.submit(1, job(7), 60000,
               [&](const runtime::CompileOutcome &o) { second = o; });
    svc.advance(120000);
    EXPECT_TRUE(second.remoteHit);
    EXPECT_EQ(svc.stats().hits, 1u);
    EXPECT_EQ(svc.stats().compiles, 1u);
    EXPECT_DOUBLE_EQ(svc.hitRate(), 0.5);
}

TEST_F(FleetTest, HitResponseChargesNetworkNotCompile)
{
    ServiceConfig cfg = oneShard();
    CompileService svc(cfg);
    svc.submit(0, job(9, 100000, 512), 0,
               [](const runtime::CompileOutcome &) {});
    svc.advance(200000);

    runtime::CompileOutcome hit;
    svc.submit(1, job(9, 100000, 512), 300000,
               [&](const runtime::CompileOutcome &o) { hit = o; });
    svc.advance(400000);
    ASSERT_TRUE(hit.remoteHit);
    // Ready = batch close + lookup + response latency + transfer;
    // nowhere near the 100k compile cost.
    uint64_t close = 300000 + kBatchWindowCycles;
    EXPECT_EQ(hit.readyCycle,
              close + kLookupCycles +
                  cfg.net.responseLatencyCycles +
                  cfg.net.transferCycles(512));
}

TEST_F(FleetTest, LruEviction)
{
    // Capacity 2: A, B cached; touching A makes B the LRU victim
    // when C installs, so B misses again while A still hits.
    CompileService svc(oneShard(2));
    uint64_t t = 0;
    auto compileAt = [&](uint64_t key) {
        svc.submit(0, job(key), t, [](const runtime::CompileOutcome &) {});
        t += 50000;
        svc.advance(t);
    };
    compileAt(1); // A
    compileAt(2); // B
    compileAt(1); // touch A (hit)
    compileAt(3); // C -> evicts B
    EXPECT_EQ(svc.stats().evictions, 1u);

    runtime::CompileOutcome a, b;
    svc.submit(0, job(1), t,
               [&](const runtime::CompileOutcome &o) { a = o; });
    t += 50000;
    svc.advance(t);
    svc.submit(0, job(2), t,
               [&](const runtime::CompileOutcome &o) { b = o; });
    t += 50000;
    svc.advance(t);
    EXPECT_TRUE(a.remoteHit);
    EXPECT_FALSE(b.remoteHit);
}

TEST_F(FleetTest, ShardRoutingStableAndSpread)
{
    ServiceConfig cfg;
    cfg.numShards = 4;
    CompileService a(cfg), b(cfg);
    std::set<uint32_t> used;
    for (uint64_t key = 1; key <= 256; ++key) {
        uint32_t s = a.shardOf(key);
        // Same key -> same shard, on any service instance.
        EXPECT_EQ(s, b.shardOf(key));
        EXPECT_LT(s, cfg.numShards);
        used.insert(s);
    }
    EXPECT_EQ(used.size(), 4u);
}

TEST_F(FleetTest, ConcurrentMissesCoalesce)
{
    // Two servers request the same key within one batch window:
    // one compile, the second rides it. A third arrives while the
    // compile is still in flight (after the window) and coalesces
    // across batches too.
    CompileService svc(oneShard());
    runtime::CompileOutcome o1, o2, o3;
    svc.submit(0, job(5, 100000), 1000,
               [&](const runtime::CompileOutcome &o) { o1 = o; });
    svc.submit(1, job(5, 100000), 1100,
               [&](const runtime::CompileOutcome &o) { o2 = o; });
    svc.submit(2, job(5, 100000), 5000,
               [&](const runtime::CompileOutcome &o) { o3 = o; });
    svc.advance(500000);
    EXPECT_EQ(svc.stats().compiles, 1u);
    EXPECT_EQ(svc.stats().misses, 1u);
    EXPECT_EQ(svc.stats().coalesced, 2u);
    EXPECT_FALSE(o1.remoteHit);
    EXPECT_TRUE(o2.remoteHit);
    EXPECT_TRUE(o3.remoteHit);
    // Coalesced responses cannot be ready before the one compile is.
    uint64_t done = o1.readyCycle -
        svc.config().net.responseLatencyCycles -
        svc.config().net.transferCycles(256);
    EXPECT_GE(o2.readyCycle, done);
    EXPECT_GE(o3.readyCycle, done);
}

TEST_F(FleetTest, RequestsProcessedInArrivalOrder)
{
    // Submission order differs from arrival order; stats and
    // outcomes must follow arrival order (the late submit with the
    // early arrival is the miss that compiles).
    CompileService svc(oneShard());
    runtime::CompileOutcome late, early;
    svc.submit(0, job(11), 9000,
               [&](const runtime::CompileOutcome &o) { late = o; });
    svc.submit(1, job(11), 1000,
               [&](const runtime::CompileOutcome &o) { early = o; });
    svc.advance(300000);
    EXPECT_FALSE(early.remoteHit);
    EXPECT_TRUE(late.remoteHit);
}

TEST_F(FleetTest, ClusterQuantumCapsAtRoundTrip)
{
    ServiceConfig cfg;
    cfg.net.requestLatencyCycles = 300;
    cfg.net.responseLatencyCycles = 200;
    CompileService svc(cfg);
    Cluster cluster(svc);
    EXPECT_EQ(cluster.quantum(), 500u);
    sim::Machine m;
    cluster.addMachine(m);
    cluster.runFor(1234);
    EXPECT_EQ(cluster.now(), 1234u);
    EXPECT_EQ(m.now(), 1234u);
}

TEST_F(FleetTest, FleetDedupAcrossServers)
{
    FleetConfig cfg;
    cfg.numServers = 4;
    cfg.meanRequestMs = 2.0;
    FleetConfig local = cfg;
    local.remoteBackend = false;

    FleetStats remote_st;
    {
        FleetSim sim(cfg);
        sim.run(80.0);
        remote_st = sim.stats();
    }
    obs::metrics().reset();
    FleetStats local_st;
    {
        FleetSim sim(local);
        sim.run(80.0);
        local_st = sim.stats();
    }

    // Both fleets materialize variants; the shared service compiles
    // each unique key once while the local fleet pays per server.
    ASSERT_GT(remote_st.serverCompiles, 0u);
    EXPECT_GT(remote_st.remoteHits, 0u);
    EXPECT_GT(remote_st.dedupFactor(), 2.0);
    EXPECT_DOUBLE_EQ(local_st.dedupFactor(), 1.0);
    EXPECT_LT(remote_st.totalCompileCycles() * 2,
              local_st.totalCompileCycles());
    EXPECT_EQ(remote_st.service.compiles +
                  remote_st.service.hits +
                  remote_st.service.coalesced,
              remote_st.service.requests);
}

TEST_F(FleetTest, DoubleRunExportsAreByteIdentical)
{
    auto runOnce = [](const std::string &mpath,
                      const std::string &tpath) {
        obs::metrics().reset();
        obs::tracer().clear();
        obs::tracer().setEnabled(true);
        FleetConfig cfg;
        cfg.numServers = 3;
        cfg.meanRequestMs = 2.0;
        FleetSim sim(cfg);
        sim.run(40.0);
        sim.exportObsMetrics();
        obs::metrics().writeJson(mpath);
        obs::tracer().writeChromeJson(tpath);
        obs::tracer().setEnabled(false);
    };
    std::string m1 = testing::TempDir() + "fleet_m1.json";
    std::string m2 = testing::TempDir() + "fleet_m2.json";
    std::string t1 = testing::TempDir() + "fleet_t1.json";
    std::string t2 = testing::TempDir() + "fleet_t2.json";
    runOnce(m1, t1);
    runOnce(m2, t2);

    auto slurp = [](const std::string &p) {
        std::ifstream in(p, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        return ss.str();
    };
    std::string metrics1 = slurp(m1);
    EXPECT_FALSE(metrics1.empty());
    EXPECT_EQ(metrics1, slurp(m2));
    std::string trace1 = slurp(t1);
    EXPECT_FALSE(trace1.empty());
    EXPECT_EQ(trace1, slurp(t2));
    // The export carries the service's cache behavior.
    EXPECT_NE(metrics1.find("fleet.service.hits"), std::string::npos);
    EXPECT_NE(metrics1.find("fleet.service.coalesced"),
              std::string::npos);
    std::remove(m1.c_str());
    std::remove(m2.c_str());
    std::remove(t1.c_str());
    std::remove(t2.c_str());
}

TEST_F(FleetTest, CatalogAndConfigValidation)
{
    FleetConfig cfg;
    cfg.numServers = 2;
    FleetSim sim(cfg);
    EXPECT_GT(sim.catalogSize(), 0u);
    EXPECT_EQ(sim.cluster().numMachines(), 2u);

    FleetConfig bad;
    bad.numServers = 0;
    EXPECT_DEATH({ FleetSim s(bad); }, "numServers");
}

} // namespace
} // namespace fleet
} // namespace protean
