/**
 * @file
 * Tests for the fleet observability plane: TelemetryHub windowed
 * rollups (delta correctness, flip-histogram merging, scrape cost
 * accounting), trace-ID propagation through the compile service,
 * SLO burn-rate alerts raised from hub windows, and byte-identical
 * telemetry exports across repeats and serial-vs-parallel stepping.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "fleet/fleet.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace protean {
namespace fleet {
namespace {

class TelemetryTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obs::metrics().reset();
        obs::tracer().clear();
        obs::tracer().setEnabled(false);
    }

    void
    TearDown() override
    {
        obs::tracer().setEnabled(false);
        obs::tracer().clear();
        obs::metrics().reset();
    }
};

FleetConfig
telemetryConfig(uint32_t workers = 1)
{
    FleetConfig cfg;
    cfg.numServers = 3;
    cfg.meanRequestMs = 1.0;
    cfg.parallelWorkers = workers;
    cfg.telemetry.enabled = true;
    return cfg;
}

RetryPolicy
testLadder()
{
    RetryPolicy p;
    p.enabled = true;
    p.maxAttempts = 3;
    p.attemptTimeoutCycles = 30000;
    p.backoffBaseCycles = 1000;
    p.backoffCapCycles = 8000;
    p.hedgeAfterCycles = 15000;
    return p;
}

faults::FaultConfig
pauseFaults()
{
    faults::FaultConfig f;
    f.serverPauseProb = 0.05;
    return f;
}

// ---------------------------------------------------------------- //
//                        Windowed rollups                          //
// ---------------------------------------------------------------- //

TEST_F(TelemetryTest, DisabledTelemetryBuildsNoHub)
{
    FleetConfig cfg;
    cfg.numServers = 2;
    FleetSim sim(cfg);
    EXPECT_EQ(sim.telemetry(), nullptr);
    sim.run(5.0);
    sim.flushTelemetry(); // must be a harmless no-op
}

TEST_F(TelemetryTest, WindowDeltasSumToServiceTotals)
{
    FleetSim sim(telemetryConfig());
    sim.run(45.0);
    sim.flushTelemetry();

    ASSERT_NE(sim.telemetry(), nullptr);
    const TelemetryHub &hub = *sim.telemetry();
    ASSERT_FALSE(hub.windows().empty());

    uint64_t requests = 0, hits = 0, misses = 0, coalesced = 0;
    uint64_t prev_end = 0;
    for (const FleetWindow &w : hub.windows()) {
        EXPECT_EQ(w.startCycle, prev_end);
        EXPECT_GT(w.endCycle, w.startCycle);
        prev_end = w.endCycle;
        requests += w.requests;
        hits += w.hits;
        misses += w.misses;
        coalesced += w.coalesced;
        EXPECT_EQ(w.shardUp.size(),
                  static_cast<size_t>(
                      sim.service().config().numShards));
    }
    const ServiceStats &st = sim.service().stats();
    EXPECT_EQ(requests, st.requests);
    EXPECT_EQ(hits, st.hits);
    EXPECT_EQ(misses, st.misses);
    EXPECT_EQ(coalesced, st.coalesced);
    EXPECT_GT(requests, 0u);
}

TEST_F(TelemetryTest, FlushClosesThePartialTailWindow)
{
    FleetSim sim(telemetryConfig());
    // 13 ms = 65000 cycles: one full 50k window plus a 15k tail that
    // only flush() rolls up.
    sim.run(13.0);
    size_t before = sim.telemetry()->windows().size();
    sim.flushTelemetry();
    const TelemetryHub &hub = *sim.telemetry();
    ASSERT_GT(hub.windows().size(), before);
    EXPECT_EQ(hub.windows().back().endCycle, sim.cluster().now());
}

TEST_F(TelemetryTest, FleetFlipMergesAllWindows)
{
    FleetSim sim(telemetryConfig());
    sim.run(45.0);
    sim.flushTelemetry();
    const TelemetryHub &hub = *sim.telemetry();

    uint64_t per_window = 0;
    for (const FleetWindow &w : hub.windows())
        per_window += w.flip.total();
    obs::HdrHistogram all = hub.fleetFlip();
    EXPECT_EQ(all.total(), per_window);
    EXPECT_GT(all.total(), 0u);
    EXPECT_GE(all.quantile(0.99), all.quantile(0.50));
}

TEST_F(TelemetryTest, ScrapeCostIsCycleAccounted)
{
    FleetConfig cfg = telemetryConfig();
    FleetSim sim(cfg);
    sim.run(45.0);
    sim.flushTelemetry();
    const TelemetryHub &hub = *sim.telemetry();

    uint64_t bytes = 0, net = 0, cpu = 0;
    const NetworkModel &nm = sim.service().config().net;
    for (const FleetWindow &w : hub.windows()) {
        // Every server ships at least the base payload, and the
        // transfer pays at least the per-request network latency.
        EXPECT_GE(w.scrapeBytes,
                  cfg.numServers * kScrapeBaseBytes);
        EXPECT_GE(w.scrapeNetworkCycles,
                  cfg.numServers * nm.requestLatencyCycles);
        EXPECT_EQ(w.scrapeCpuCycles,
                  cfg.numServers * kScrapeCpuCycles);
        bytes += w.scrapeBytes;
        net += w.scrapeNetworkCycles;
        cpu += w.scrapeCpuCycles;
    }
    EXPECT_EQ(hub.scrapeBytesTotal(), bytes);
    EXPECT_EQ(hub.scrapeNetworkCyclesTotal(), net);
    EXPECT_EQ(hub.scrapeCpuCyclesTotal(), cpu);
}

TEST_F(TelemetryTest, FieldsExposeEveryScalarSeries)
{
    FleetSim sim(telemetryConfig());
    sim.run(25.0);
    sim.flushTelemetry();
    const FleetWindow &w = sim.telemetry()->windows().front();
    std::map<std::string, double> f = w.fields();
    for (const char *key :
         {"requests", "hits", "misses", "hit_rate", "crashes",
          "timeouts", "delayed", "dropped", "corrupt_rejects",
          "corrupt_responses", "flip_p50", "flip_p99", "flip_p999",
          "stranded", "breakers_open", "server_pauses",
          "scrape_bytes"}) {
        EXPECT_TRUE(f.count(key)) << "missing field " << key;
    }
    EXPECT_DOUBLE_EQ(f.at("requests"),
                     static_cast<double>(w.requests));
    EXPECT_DOUBLE_EQ(f.at("flip_p99"),
                     static_cast<double>(w.flip.quantile(0.99)));
}

// ---------------------------------------------------------------- //
//                      Trace-ID propagation                        //
// ---------------------------------------------------------------- //

TEST_F(TelemetryTest, TraceIdsPropagateClientToServiceToFlip)
{
    obs::tracer().setEnabled(true);
    FleetConfig cfg;
    cfg.numServers = 3;
    cfg.meanRequestMs = 1.0;
    FleetSim sim(cfg);
    sim.run(25.0);
    std::string json = obs::tracer().toChromeJson();
    obs::tracer().setEnabled(false);

    // Collect every trace id stamped into span args.
    std::map<uint64_t, int> ids;
    size_t pos = 0;
    while ((pos = json.find("\"trace\":", pos)) != std::string::npos) {
        pos += 8;
        uint64_t id = std::strtoull(json.c_str() + pos, nullptr, 10);
        ++ids[id];
    }
    ASSERT_FALSE(ids.empty());
    // The id encodes the issuing client: high half = server id + 1.
    // Every id must come from a registered server, never id 0
    // (0 marks an untraced job).
    int multi_span = 0;
    for (const auto &[id, count] : ids) {
        EXPECT_NE(id, 0u);
        uint64_t client = (id >> 32) - 1;
        EXPECT_LT(client, cfg.numServers);
        if (count >= 2)
            ++multi_span;
    }
    // Propagation means one request's id shows up on spans emitted
    // by different layers (client hop, service queue/compile, flip).
    EXPECT_GT(multi_span, 0);
    // And the service-side lanes actually carry them.
    EXPECT_NE(json.find("request hop"), std::string::npos);
    EXPECT_NE(json.find("queue wait"), std::string::npos);
    EXPECT_NE(json.find("flip"), std::string::npos);
}

TEST_F(TelemetryTest, TracedRunsAreRepeatable)
{
    auto traced = [] {
        obs::metrics().reset();
        obs::tracer().clear();
        obs::tracer().setEnabled(true);
        FleetConfig cfg;
        cfg.numServers = 2;
        cfg.meanRequestMs = 1.0;
        FleetSim sim(cfg);
        sim.run(15.0);
        std::string json = obs::tracer().toChromeJson();
        obs::tracer().setEnabled(false);
        obs::tracer().clear();
        return json;
    };
    std::string a = traced();
    std::string b = traced();
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------- //
//                       SLO alerts from windows                    //
// ---------------------------------------------------------------- //

TEST_F(TelemetryTest, SloAlertRaisesOnInjectedPausesOnly)
{
    obs::SloSpec spec;
    spec.name = "pause_free";
    spec.field = "server_pauses";
    spec.threshold = 0;
    spec.budget = 0.10;

    {
        FleetConfig cfg = telemetryConfig();
        cfg.faults = pauseFaults();
        cfg.retry = testLadder();
        FleetSim sim(cfg);
        sim.telemetry()->addSlo(spec);
        sim.run(45.0);
        sim.flushTelemetry();
        const obs::SloMonitor &slo = sim.telemetry()->slo();
        EXPECT_TRUE(slo.everFired("pause_free"));
        EXPECT_GT(slo.badWindows("pause_free"), 0u);
        ASSERT_FALSE(slo.alerts().empty());
        EXPECT_EQ(slo.alerts().front().slo, "pause_free");
    }
    {
        FleetConfig cfg = telemetryConfig();
        FleetSim sim(cfg);
        sim.telemetry()->addSlo(spec);
        sim.run(45.0);
        sim.flushTelemetry();
        EXPECT_TRUE(sim.telemetry()->slo().alerts().empty());
    }
}

// ---------------------------------------------------------------- //
//                    Determinism of the exports                    //
// ---------------------------------------------------------------- //

TEST_F(TelemetryTest, TelemetryJsonByteIdenticalSerialVsParallel4)
{
    auto runOnce = [](uint32_t workers) {
        obs::metrics().reset();
        FleetConfig cfg = telemetryConfig(workers);
        cfg.faults = pauseFaults();
        cfg.retry = testLadder();
        cfg.service.replication = 2;
        FleetSim sim(cfg);
        sim.run(40.0);
        sim.flushTelemetry();
        return sim.telemetry()->toJson();
    };
    std::string serial = runOnce(1);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, runOnce(1)); // repeatable
    EXPECT_EQ(serial, runOnce(4)); // parallel stepping identical
    EXPECT_NE(serial.find("\"windows\""), std::string::npos);
    EXPECT_NE(serial.find("\"flip\""), std::string::npos);
    EXPECT_NE(serial.find("\"slo\""), std::string::npos);
}

TEST_F(TelemetryTest, ExportObsMetricsPublishesHubGauges)
{
    FleetSim sim(telemetryConfig());
    sim.run(25.0);
    sim.flushTelemetry();
    sim.exportObsMetrics();
    std::string json = obs::metrics().toJson();
    EXPECT_NE(json.find("fleet.telemetry.windows"),
              std::string::npos);
    EXPECT_NE(json.find("fleet.telemetry.flip_p99"),
              std::string::npos);
    EXPECT_NE(json.find("fleet.telemetry.scrape_bytes"),
              std::string::npos);
}

} // namespace
} // namespace fleet
} // namespace protean
