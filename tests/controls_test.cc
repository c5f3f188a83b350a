/**
 * @file
 * Tests for the adaptive control machinery added on top of the basic
 * monitoring: QoS-reference repriming on co-phase changes, the phase
 * detector's post-detection cooldown, forced recompilation, the
 * ReQoS fast-attack/slow-release controller, and the table emitter
 * used by the figure benches.
 */

#include <gtest/gtest.h>

#include "pcc/pcc.h"
#include "reqos/reqos.h"
#include "runtime/runtime.h"
#include "support/table.h"
#include "workloads/driver.h"
#include "workloads/registry.h"

namespace protean {
namespace {

// --------------------------------------------------------------
// TextTable (the figure benches' output path).

TEST(TextTable, AlignsColumns)
{
    TextTable t("title");
    t.setHeader({"a", "long-header"});
    t.addRow({"xx", "1"});
    t.addRow({"y", "22"});
    std::string out = t.toText();
    EXPECT_NE(out.find("== title =="), std::string::npos);
    // Each data line starts at column 0 and columns line up.
    size_t h = out.find("a   long-header");
    EXPECT_NE(h, std::string::npos);
    EXPECT_NE(out.find("xx  1"), std::string::npos);
    EXPECT_NE(out.find("y   22"), std::string::npos);
}

TEST(TextTable, CsvEscaping)
{
    TextTable t;
    t.setHeader({"name", "value"});
    t.addRow({"plain", "1"});
    t.addRow({"with,comma", "quote\"inside"});
    std::string csv = t.toCsv();
    EXPECT_NE(csv.find("name,value\n"), std::string::npos);
    EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
    EXPECT_NE(csv.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(TextTable, RaggedRowsPadded)
{
    TextTable t;
    t.setHeader({"a", "b", "c"});
    t.addRow({"1"});
    std::string out = t.toText();
    EXPECT_NE(out.find("1"), std::string::npos);
}

TEST(TextTable, FmtPrecision)
{
    EXPECT_EQ(TextTable::fmt(1.23456, 2), "1.23");
    EXPECT_EQ(TextTable::fmt(1.0, 0), "1");
}

// --------------------------------------------------------------
// PhaseDetector cooldown.

TEST(PhaseDetectorCooldown, QuietAfterDetection)
{
    runtime::PhaseDetector det(0.3, 1.0, 4);
    det.update(1.0);
    EXPECT_TRUE(det.update(2.0)); // big shift detected
    // Oscillation during cooldown stays quiet.
    EXPECT_FALSE(det.update(1.0));
    EXPECT_FALSE(det.update(2.0));
    EXPECT_FALSE(det.update(1.0));
    EXPECT_FALSE(det.update(2.0));
}

TEST(PhaseDetectorCooldown, RearmsAfterCooldown)
{
    runtime::PhaseDetector det(0.3, 1.0, 2);
    det.update(1.0);
    EXPECT_TRUE(det.update(2.0));
    det.update(2.0); // cooldown 1
    det.update(2.0); // cooldown 2
    EXPECT_TRUE(det.update(4.0)); // re-armed
}

// --------------------------------------------------------------
// QosMonitor repriming.

struct QosRig
{
    sim::Machine machine;
    ir::Module host_m;
    ir::Module co_m;
    isa::Image host_img;
    isa::Image co_img;
    runtime::NapGovernor governor{machine, 0};

    QosRig()
        : host_m(workloads::buildBatch([] {
              workloads::BatchSpec s = workloads::batchSpec("milc");
              s.targetStaticLoads = 0;
              return s;
          }())),
          co_m(workloads::buildBatch([] {
              workloads::BatchSpec s =
                  workloads::batchSpec("blockie");
              s.targetStaticLoads = 0;
              return s;
          }())),
          host_img(pcc::compilePlain(host_m)),
          co_img(pcc::compilePlain(co_m))
    {
        machine.load(host_img, 0);
        machine.load(co_img, 1);
    }
};

TEST(QosReprime, InvalidatesAndRecovers)
{
    QosRig rig;
    runtime::QosOptions opts;
    opts.initialDelayMs = 10.0;
    opts.primingPeriodMs = 100.0;
    opts.probePeriodMs = 500.0;
    opts.probeLenMs = 10.0;
    runtime::QosMonitor qos(rig.machine, rig.governor, {1}, opts);
    qos.start();
    EXPECT_TRUE(qos.priming());
    rig.machine.runFor(rig.machine.msToCycles(500));
    EXPECT_FALSE(qos.priming());
    double solo = qos.soloIps(1);
    EXPECT_GT(solo, 0.0);

    qos.reprime();
    EXPECT_TRUE(qos.priming());
    EXPECT_TRUE(qos.windowTainted());
    EXPECT_EQ(qos.soloIps(1), 0.0); // reference invalidated
    rig.machine.runFor(rig.machine.msToCycles(600));
    EXPECT_FALSE(qos.priming());
    EXPECT_GT(qos.soloIps(1), 0.0);
    // The fresh estimate describes the same (unchanged) co-runner.
    EXPECT_NEAR(qos.soloIps(1) / solo, 1.0, 0.25);
}

TEST(QosReprime, WindowsTaintedWhilePriming)
{
    QosRig rig;
    runtime::QosOptions opts;
    opts.initialDelayMs = 10.0;
    opts.primingPeriodMs = 200.0;
    runtime::QosMonitor qos(rig.machine, rig.governor, {1}, opts);
    qos.start();
    rig.machine.runFor(rig.machine.msToCycles(100));
    // One probe done, still priming.
    EXPECT_TRUE(qos.priming());
    qos.clearTaint();
    EXPECT_TRUE(qos.windowTainted());
}

// --------------------------------------------------------------
// Forced recompilation.

TEST(ForceRecompile, BypassesCache)
{
    workloads::BatchSpec spec = workloads::batchSpec("milc");
    spec.targetStaticLoads = 0;
    ir::Module m = workloads::buildBatch(spec);
    isa::Image image = pcc::compile(m);
    sim::Machine machine;
    sim::Process &proc = machine.load(image, 0);
    runtime::Attachment att = runtime::attach(proc);
    runtime::RuntimeCompiler rc(machine, proc, *att.ir,
                                att.slots, 1);
    ir::FuncId hot = att.ir->module().findFunction("hot_0")->id();
    BitVector mask(att.ir->module().numLoads());

    rc.requestVariant(hot, mask, [](isa::CodeAddr) {});
    rc.requestVariant(hot, mask, [](isa::CodeAddr) {});
    machine.runFor(machine.msToCycles(100));
    EXPECT_EQ(rc.compileCount(), 1u); // second hit the cache

    rc.requestVariant(hot, mask, [](isa::CodeAddr) {}, true);
    machine.runFor(machine.msToCycles(100));
    EXPECT_EQ(rc.compileCount(), 2u); // forced
}

// --------------------------------------------------------------
// ReQoS controller properties on a live rig.

TEST(ReQosController, ReleasesWhenUncontended)
{
    // A trivial co-runner that the host cannot hurt: nap must drain
    // back toward zero even if it starts high.
    workloads::BatchSpec hs = workloads::batchSpec("namd");
    hs.targetStaticLoads = 0;
    ir::Module hm = workloads::buildBatch(hs);
    isa::Image hi = pcc::compilePlain(hm);
    workloads::BatchSpec cs = workloads::batchSpec("povray");
    cs.targetStaticLoads = 0;
    ir::Module cm = workloads::buildBatch(cs);
    isa::Image ci = pcc::compilePlain(cm);

    sim::Machine machine;
    machine.load(hi, 0);
    machine.load(ci, 1);
    runtime::NapGovernor gov(machine, 0);
    runtime::QosMonitor qos(machine, gov, {1});
    reqos::ReQosOptions opts;
    opts.qosTarget = 0.90;
    reqos::ReQosController ctl(machine, gov, qos, opts);
    ctl.start();
    machine.runFor(machine.msToCycles(6000));
    EXPECT_LT(ctl.nap(), 0.2);
    EXPECT_GT(ctl.lastQos(), 0.85);
}

} // namespace
} // namespace protean
