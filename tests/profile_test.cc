/**
 * @file
 * Tests for the continuous-profiling plane: obs::Profile merge
 * algebra and stable exports, per-server VariantProfiler attribution
 * (HPM deltas, variant masks and phase ids), and byte-identical
 * profile / flamegraph / telemetry exports across repeats and
 * serial-vs-parallel fleet stepping.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "pcc/pcc.h"
#include "runtime/attach.h"
#include "runtime/profiler.h"
#include "support/logging.h"
#include "workloads/registry.h"

namespace protean {
namespace {

// ---------------------------------------------------------------- //
//                       Profile merge algebra                      //
// ---------------------------------------------------------------- //

obs::ProfileKey
key(uint64_t hash, const std::string &mask, uint32_t phase)
{
    obs::ProfileKey k;
    k.funcHash = hash;
    k.mask = mask;
    k.phase = phase;
    return k;
}

obs::ProfileCounts
counts(uint64_t samples, uint64_t cycles, uint64_t insts)
{
    obs::ProfileCounts c;
    c.samples = samples;
    c.cycles = cycles;
    c.instructions = insts;
    return c;
}

TEST(Profile, RecordAccumulatesIntoOneBucket)
{
    obs::Profile p;
    p.record(key(7, "m", 0), counts(1, 100, 80));
    p.record(key(7, "m", 0), counts(2, 50, 40));
    p.record(key(7, "m", 1), counts(1, 10, 5));
    ASSERT_EQ(p.entries().size(), 2u);
    EXPECT_EQ(p.totalSamples(), 4u);
    const obs::ProfileCounts &c = p.entries().at(key(7, "m", 0));
    EXPECT_EQ(c.samples, 3u);
    EXPECT_EQ(c.cycles, 150u);
    EXPECT_EQ(c.instructions, 120u);
    EXPECT_EQ(p.samplesOf(7), 4u);
}

TEST(Profile, MergeIsAssociativeAndCommutative)
{
    auto make = [](uint64_t hash, uint64_t n) {
        obs::Profile p;
        p.record(key(hash, "", 0), counts(n, n * 10, n * 8));
        p.record(key(42, "shared", 1), counts(n, n, n));
        return p;
    };
    obs::Profile a = make(1, 3), b = make(2, 5), c = make(3, 7);

    obs::Profile ab_c; // (a + b) + c
    ab_c.merge(a);
    ab_c.merge(b);
    ab_c.merge(c);
    obs::Profile c_ba; // c + (b + a), opposite order
    c_ba.merge(c);
    c_ba.merge(b);
    c_ba.merge(a);
    EXPECT_EQ(ab_c.toJson(), c_ba.toJson());
    EXPECT_EQ(ab_c.folded(), c_ba.folded());
    EXPECT_EQ(ab_c.totalSamples(), 3u + 5 + 7 + 3 + 5 + 7);
    // The shared bucket folded into one entry with summed counts.
    EXPECT_EQ(ab_c.entries().at(key(42, "shared", 1)).samples,
              3u + 5 + 7);
}

TEST(Profile, DrainMovesEverythingAndEmptiesSource)
{
    obs::Profile src;
    src.record(key(9, "x", 2), counts(4, 400, 300));
    src.setName(9, "hot_fn");
    obs::Profile dst;
    dst.record(key(9, "x", 2), counts(1, 10, 8));
    src.drainInto(dst);
    EXPECT_TRUE(src.empty());
    EXPECT_EQ(src.totalSamples(), 0u);
    EXPECT_EQ(dst.totalSamples(), 5u);
    EXPECT_EQ(dst.entries().at(key(9, "x", 2)).samples, 5u);
    EXPECT_EQ(dst.nameOf(9), "hot_fn");
}

TEST(Profile, NamesFirstWriterWinsAndFallbacks)
{
    obs::Profile p;
    p.setName(0xabc, "first");
    p.setName(0xabc, "second"); // ignored
    EXPECT_EQ(p.nameOf(0xabc), "first");
    EXPECT_EQ(p.nameOf(0), "[unattributed]");
    EXPECT_EQ(p.nameOf(0x1f), "f1f"); // never named
}

TEST(Profile, HottestFunctionSumsBucketsAndBreaksTiesLow)
{
    obs::Profile p;
    EXPECT_EQ(p.hottestFunction(), 0u);
    p.record(key(5, "", 0), counts(3, 0, 0));
    p.record(key(5, "m", 1), counts(3, 0, 0)); // 5 totals 6
    p.record(key(2, "", 0), counts(5, 0, 0));
    EXPECT_EQ(p.hottestFunction(), 5u);
    p.record(key(2, "", 1), counts(1, 0, 0)); // tie at 6 each
    EXPECT_EQ(p.hottestFunction(), 2u);       // smaller hash wins
}

TEST(Profile, FoldedLinesNameVariantAndPhaseFrames)
{
    obs::Profile p;
    p.record(key(3, "", 0), counts(2, 0, 0));
    p.record(key(3, "f0:110", 1), counts(7, 0, 0));
    p.setName(3, "kernel");
    EXPECT_EQ(p.folded(),
              "phase_0;kernel;original 2\n"
              "phase_1;kernel;mask_f0:110 7\n");
    EXPECT_NE(p.toJson().find("\"total_samples\": 9"),
              std::string::npos);
}

// ---------------------------------------------------------------- //
//                  Per-server VariantProfiler                      //
// ---------------------------------------------------------------- //

/** A function of the rig's binary (any real one has a nonzero
 *  content hash). */
constexpr ir::FuncId kFunc = 0;

/** One machine running a protean batch, profiled on its host core
 *  (core 0). */
struct ProfilerRig
{
    ir::Module module =
        workloads::buildBatch(workloads::batchSpec("soplex"));
    isa::Image image = pcc::compile(module);
    sim::Machine machine;
    runtime::Attachment att = runtime::attach(machine.load(image, 0));
    runtime::VariantProfiler profiler{machine, 0, *att.ir};

    sim::HpmCounters hpm() { return machine.core(0).hpm(); }
};

TEST(VariantProfiler, SampleCarriesTheHpmDeltaSinceThePreviousOne)
{
    ProfilerRig rig;
    rig.machine.runFor(20000);
    rig.profiler.recordSample(kFunc, "");
    sim::HpmCounters before = rig.hpm();
    rig.machine.runFor(30000);
    sim::HpmCounters after = rig.hpm();
    rig.profiler.recordSample(kFunc, "m1");

    const obs::Profile &p = rig.profiler.profile();
    uint64_t hash = rig.att.ir->hash(kFunc);
    ASSERT_NE(hash, 0u);
    ASSERT_EQ(p.entries().count(key(hash, "m1", 0)), 1u);
    const obs::ProfileCounts &c = p.entries().at(key(hash, "m1", 0));
    EXPECT_EQ(c.samples, 1u);
    EXPECT_GT(after.cycles, before.cycles);
    EXPECT_GT(after.instructions, before.instructions);
    EXPECT_EQ(c.cycles, after.cycles - before.cycles);
    EXPECT_EQ(c.instructions, after.instructions - before.instructions);
    EXPECT_EQ(p.nameOf(hash),
              rig.att.ir->module().function(kFunc).name());
}

TEST(VariantProfiler, AdvancePhaseMovesLaterSamplesToTheNextBucket)
{
    ProfilerRig rig;
    rig.machine.runFor(20000);
    rig.profiler.recordSample(kFunc, "m");
    EXPECT_EQ(rig.profiler.phase(), 0u);
    rig.profiler.advancePhase();
    EXPECT_EQ(rig.profiler.phase(), 1u);
    rig.machine.runFor(20000);
    rig.profiler.recordSample(kFunc, "m");

    const obs::Profile &p = rig.profiler.profile();
    uint64_t hash = rig.att.ir->hash(kFunc);
    ASSERT_EQ(p.entries().size(), 2u);
    EXPECT_EQ(p.entries().at(key(hash, "m", 0)).samples, 1u);
    EXPECT_EQ(p.entries().at(key(hash, "m", 1)).samples, 1u);
}

TEST(VariantProfiler, UnattributedSampleLandsInHashZero)
{
    ProfilerRig rig;
    rig.machine.runFor(20000);
    rig.profiler.recordSample(ir::kInvalidId, "");

    const obs::Profile &p = rig.profiler.profile();
    ASSERT_EQ(p.entries().size(), 1u);
    EXPECT_EQ(p.entries().count(key(0, "", 0)), 1u);
    EXPECT_EQ(rig.profiler.funcHash(ir::kInvalidId), 0u);
    EXPECT_EQ(p.nameOf(p.hottestFunction()), "[unattributed]");
}

// ---------------------------------------------------------------- //
//                Fleet integration: profiled runs                  //
// ---------------------------------------------------------------- //

class FleetProfileTest : public ::testing::Test
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

fleet::FleetConfig
profiledConfig(uint32_t workers = 1)
{
    fleet::FleetConfig cfg;
    cfg.numServers = 3;
    cfg.meanRequestMs = 1.0;
    cfg.parallelWorkers = workers;
    cfg.telemetry.enabled = true;
    cfg.telemetry.profiling = true;
    return cfg;
}

TEST_F(FleetProfileTest, ProfilingOffKeepsThePlaneEmpty)
{
    fleet::FleetConfig cfg = profiledConfig();
    cfg.telemetry.profiling = false;
    fleet::FleetSim sim(cfg);
    sim.run(20.0);
    sim.flushTelemetry();
    ASSERT_NE(sim.telemetry(), nullptr);
    EXPECT_TRUE(sim.telemetry()->fleetProfile().empty());
    for (const fleet::FleetWindow &w : sim.telemetry()->windows())
        EXPECT_EQ(w.profileSamples, 0u);
}

TEST_F(FleetProfileTest, SamplesCarryVariantMasksAndFunctionNames)
{
    fleet::FleetSim sim(profiledConfig());
    // Long enough for the deploy stream to install variants and for
    // PC samples to land inside their code ranges.
    sim.run(120.0);
    sim.flushTelemetry();
    const fleet::TelemetryHub &hub = *sim.telemetry();

    // Samples landed and the hub's windows account for all of them.
    const obs::Profile &prof = hub.fleetProfile();
    ASSERT_FALSE(prof.empty());
    uint64_t window_samples = 0;
    for (const fleet::FleetWindow &w : hub.windows())
        window_samples += w.profileSamples;
    EXPECT_EQ(window_samples, prof.totalSamples());

    // The deploy stream installs variants, so some samples must be
    // attributed to a non-empty NT-mask, and each such bucket must
    // name a real function (hash != 0).
    bool variant_bucket = false;
    for (const auto &[k, c] : prof.entries()) {
        (void)c;
        if (!k.mask.empty()) {
            variant_bucket = true;
            EXPECT_NE(k.funcHash, 0u);
        }
    }
    EXPECT_TRUE(variant_bucket);

    // The hottest function was named (the profiler knows the
    // binary's symbols).
    uint64_t hot = prof.hottestFunction();
    ASSERT_NE(hot, 0u);
    EXPECT_NE(prof.nameOf(hot),
              strformat("f%llx",
                        static_cast<unsigned long long>(hot)))
        << "hottest function stayed an anonymous hash";
}

TEST_F(FleetProfileTest, ScrapePaysForProfilePayloadBytes)
{
    fleet::FleetConfig with = profiledConfig();
    fleet::FleetConfig without = profiledConfig();
    without.telemetry.profiling = false;
    auto scrapeBytes = [](const fleet::FleetConfig &cfg) {
        obs::metrics().reset();
        fleet::FleetSim sim(cfg);
        sim.run(40.0);
        sim.flushTelemetry();
        return sim.telemetry()->scrapeBytesTotal();
    };
    // Shipping profile entries costs wire bytes; the profiled
    // fleet's scrape payload must be strictly larger.
    EXPECT_GT(scrapeBytes(with), scrapeBytes(without));
}

TEST_F(FleetProfileTest, ExportsByteIdenticalSerialVsParallel4)
{
    auto runOnce = [](uint32_t workers) {
        obs::metrics().reset();
        fleet::FleetSim sim(profiledConfig(workers));
        sim.run(40.0);
        sim.flushTelemetry();
        const fleet::TelemetryHub &hub = *sim.telemetry();
        return hub.fleetProfile().toJson() + "\n---\n" +
            hub.fleetProfile().folded() + "\n---\n" + hub.toJson();
    };
    std::string serial = runOnce(1);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, runOnce(1)); // repeatable
    EXPECT_EQ(serial, runOnce(4)); // parallel stepping identical
    EXPECT_NE(serial.find("\"profile\""), std::string::npos);
}

} // namespace
} // namespace protean
