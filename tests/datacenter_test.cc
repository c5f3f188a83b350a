/**
 * @file
 * Tests for the scale-out analysis (Figures 17-18 models), its
 * fleet-calibrated variant and the trace harness's measurement
 * window.
 */

#include <gtest/gtest.h>

#include "datacenter/experiment.h"
#include "datacenter/fleet_calibration.h"
#include "datacenter/scaleout.h"

namespace protean {
namespace datacenter {
namespace {

TEST(ScaleOut, ServerCountFollowsUtilization)
{
    ScaleOutResult low = analyzeMix("web-search", "WL", {0.3, 0.3});
    ScaleOutResult high = analyzeMix("web-search", "WL", {0.9, 0.9});
    EXPECT_EQ(low.pc3dServers, 10000u);
    EXPECT_EQ(low.noColoServers, 13000u);
    EXPECT_EQ(high.noColoServers, 19000u);
    EXPECT_GT(high.noColoServers, low.noColoServers);
}

TEST(ScaleOut, PaperRangeForTypicalUtilizations)
{
    // Paper: 3.5k - 8k extra servers for utilizations in the
    // observed range.
    ScaleOutResult r = analyzeMix("s", "m", {0.35, 0.55, 0.8});
    uint32_t extra = r.noColoServers - r.pc3dServers;
    EXPECT_GE(extra, 3000u);
    EXPECT_LE(extra, 8000u);
}

TEST(ScaleOut, EnergyEfficiencyAboveOne)
{
    // Consolidation always wins under the linear power model with
    // nonzero idle power.
    for (double u : {0.2, 0.5, 0.8, 1.0}) {
        ScaleOutResult r = analyzeMix("s", "m", {u});
        EXPECT_GT(r.energyEfficiencyRatio, 1.0) << u;
        EXPECT_LT(r.energyEfficiencyRatio, 2.0) << u;
    }
}

TEST(ScaleOut, PaperEnergyRange)
{
    // The paper reports 18-34% efficiency gains; our linear model
    // lands in the same band, running slightly higher at very high
    // batch utilizations (idle power dominates the no-co-location
    // cluster).
    ScaleOutResult r = analyzeMix("s", "m", {0.5, 0.6, 0.7, 0.8});
    EXPECT_GT(r.energyEfficiencyRatio, 1.10);
    EXPECT_LT(r.energyEfficiencyRatio, 1.60);
}

TEST(ScaleOut, ZeroIdlePowerRemovesConsolidationWin)
{
    // With perfectly energy-proportional servers the two designs
    // converge (power follows work exactly).
    ScaleOutParams params;
    params.idlePowerFraction = 0.0;
    ScaleOutResult r = analyzeMix("s", "m", {0.5}, params);
    EXPECT_NEAR(r.energyEfficiencyRatio, 1.0, 0.01);
}

TEST(ScaleOut, FullIdlePowerCapsTheWinAtServerCount)
{
    // idlePowerFraction = 1: power is pure server count, so the
    // efficiency ratio degenerates to noColo/pc3d server counts.
    ScaleOutParams params;
    params.idlePowerFraction = 1.0;
    ScaleOutResult r = analyzeMix("s", "m", {0.5}, params);
    EXPECT_NEAR(r.energyEfficiencyRatio,
                static_cast<double>(r.noColoServers) /
                    static_cast<double>(r.pc3dServers),
                1e-12);
}

TEST(ScaleOut, SingleServerCluster)
{
    // The model holds at N=1: one PC3D server vs one LS server plus
    // one (fractionally utilized, fully powered) batch server.
    ScaleOutParams params;
    params.baseServers = 1;
    ScaleOutResult r = analyzeMix("s", "m", {0.5}, params);
    EXPECT_EQ(r.pc3dServers, 1u);
    EXPECT_EQ(r.noColoServers, 2u);
    EXPECT_GT(r.energyEfficiencyRatio, 1.0);
}

TEST(ScaleOut, HigherIdleFractionIncreasesWin)
{
    ScaleOutParams low;
    low.idlePowerFraction = 0.3;
    ScaleOutParams high;
    high.idlePowerFraction = 0.7;
    double a = analyzeMix("s", "m", {0.5}, low).energyEfficiencyRatio;
    double b = analyzeMix("s", "m", {0.5}, high).energyEfficiencyRatio;
    EXPECT_GT(b, a);
}

TEST(ScaleOut, MeanUtilizationReported)
{
    ScaleOutResult r = analyzeMix("s", "m", {0.2, 0.4, 0.6});
    EXPECT_NEAR(r.meanUtilization, 0.4, 1e-12);
    EXPECT_EQ(r.service, "s");
    EXPECT_EQ(r.mixName, "m");
}

TEST(ScaleOut, EmptyMixIsFatal)
{
    EXPECT_DEATH({ analyzeMix("s", "m", {}); }, "empty");
}

TEST(ScaleOut, TableThreeMixesMatchPaper)
{
    const auto &mixes = tableThreeMixes();
    ASSERT_EQ(mixes.size(), 3u);
    EXPECT_EQ(mixes[0].first, "WL1");
    EXPECT_EQ(mixes[0].second,
              (std::vector<std::string>{"libquantum", "bzip2",
                                        "sphinx3", "milc"}));
    EXPECT_EQ(mixes[1].second,
              (std::vector<std::string>{"soplex", "bst", "milc",
                                        "lbm"}));
    EXPECT_EQ(mixes[2].second,
              (std::vector<std::string>{"sledge", "soplex",
                                        "sphinx3", "libquantum"}));
}

TEST(ScaleOut, CustomBaseServers)
{
    ScaleOutParams params;
    params.baseServers = 100;
    ScaleOutResult r = analyzeMix("s", "m", {0.5}, params);
    EXPECT_EQ(r.pc3dServers, 100u);
    EXPECT_EQ(r.noColoServers, 150u);
}

ColoConfig
shortCell()
{
    ColoConfig cell;
    cell.service = "web-search";
    cell.qps = 120.0;
    cell.settleMs = 1000.0;
    cell.measureMs = 500.0;
    return cell;
}

TEST(FleetCalibration, OneServerPerMemberPayingOnlyInstalls)
{
    const auto &[mix, members] = tableThreeMixes().front();
    FleetMixResult a = analyzeMixFromFleet(shortCell(), mix, members);

    ASSERT_EQ(a.utils.size(), members.size());
    ASSERT_EQ(a.qos.size(), members.size());
    for (double u : a.utils)
        EXPECT_GT(u, 0.0);
    EXPECT_GT(a.service.requests, 0u);
    // Servers pay only the install cost of what the service compiled.
    EXPECT_LT(a.serverCompileCycles, a.service.compileCycles);
    EXPECT_EQ(a.scaleout.service, "web-search");
    EXPECT_EQ(a.scaleout.mixName, mix);

    // An identical call returns identical results.
    FleetMixResult b = analyzeMixFromFleet(shortCell(), mix, members);
    EXPECT_EQ(a.utils, b.utils);
    EXPECT_EQ(a.qos, b.qos);
    EXPECT_EQ(a.serverCompileCycles, b.serverCompileCycles);
    EXPECT_EQ(a.service.requests, b.service.requests);
    EXPECT_EQ(a.service.hits, b.service.hits);
    EXPECT_EQ(a.service.compiles, b.service.compiles);
    EXPECT_EQ(a.service.compileCycles, b.service.compileCycles);
    EXPECT_EQ(a.scaleout.noColoServers, b.scaleout.noColoServers);
    EXPECT_EQ(a.scaleout.energyEfficiencyRatio,
              b.scaleout.energyEfficiencyRatio);
}

TEST(ColocationTrace, UtilizationDividesByTheMeasuredWindow)
{
    // Measurement starts at the first sample boundary at or after
    // settleMs (1500 ms) and runs to the last boundary (2500 ms):
    // 1000 ms of counters, not measureMs = 1100 ms.
    ColoConfig cfg;
    cfg.batch = "libquantum";
    cfg.system = System::None;
    cfg.settleMs = 1250.0;
    cfg.measureMs = 1100.0;
    ColoResult r = runColocationTrace(cfg, 500.0);

    ASSERT_EQ(r.trace.size(), 5u);
    double sum = 0.0;
    size_t n = 0;
    for (const TraceSample &s : r.trace) {
        if (s.tMs > 1500.0) {
            sum += s.hostBpc;
            ++n;
        }
    }
    ASSERT_EQ(n, 2u);
    double measured_bpc = r.utilization *
        soloBatchBpc(cfg.batch, cfg.machine);
    EXPECT_NEAR(measured_bpc, sum / n, 1e-9 * (sum / n));
}

} // namespace
} // namespace datacenter
} // namespace protean
