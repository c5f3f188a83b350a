/**
 * @file
 * Tests for the workload generators and registry: structural
 * properties (verification, static load counts matching Figure 8),
 * behavioral properties (streaming vs pointer-chase, phase
 * alternation), the service model, and the load driver.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "ir/loops.h"
#include "ir/verifier.h"
#include "pcc/pcc.h"
#include "sim/machine.h"
#include "workloads/driver.h"
#include "workloads/registry.h"

namespace protean {
namespace workloads {
namespace {

TEST(Registry, AllSpecNamesResolve)
{
    for (const auto &name : specBenchmarkNames()) {
        EXPECT_TRUE(hasBatchSpec(name)) << name;
        EXPECT_EQ(batchSpec(name).name, name);
    }
    EXPECT_EQ(specBenchmarkNames().size(), 18u);
}

TEST(Registry, ContentiousSetMatchesPaper)
{
    const auto &names = contentiousBatchNames();
    EXPECT_EQ(names.size(), 10u);
    for (const auto &n : names)
        EXPECT_TRUE(hasBatchSpec(n)) << n;
    EXPECT_EQ(names.front(), "blockie");
    EXPECT_EQ(names.back(), "sphinx3");
}

TEST(Registry, WebserviceNames)
{
    EXPECT_EQ(webserviceNames().size(), 3u);
    for (const auto &n : webserviceNames())
        EXPECT_EQ(serviceSpec(n).name, n);
    // PARSEC external app also present.
    EXPECT_EQ(serviceSpec("streamcluster").name, "streamcluster");
}

TEST(Registry, UnknownNamesAreFatal)
{
    EXPECT_DEATH({ batchSpec("nonesuch"); }, "unknown workload");
    EXPECT_DEATH({ serviceSpec("nonesuch"); }, "unknown service");
}

/**
 * Figure 8's static load counts per contentious application. The name
 * is a std::string, not a const char *, so the printed parameter (and
 * with it the discovered test name) carries no load-address-dependent
 * pointer value.
 */
class Fig8LoadCounts
    : public ::testing::TestWithParam<std::pair<std::string, uint32_t>>
{};

TEST_P(Fig8LoadCounts, StaticLoadCountMatches)
{
    auto [name, count] = GetParam();
    ir::Module m = buildBatch(batchSpec(name));
    EXPECT_EQ(m.numLoads(), count);
}

INSTANTIATE_TEST_SUITE_P(
    Paper, Fig8LoadCounts,
    ::testing::Values(std::make_pair(std::string("blockie"), 64u),
                      std::make_pair(std::string("bst"), 70u),
                      std::make_pair(std::string("er-naive"), 25u),
                      std::make_pair(std::string("sledge"), 35u),
                      std::make_pair(std::string("bzip2"), 2582u),
                      std::make_pair(std::string("milc"), 3632u),
                      std::make_pair(std::string("soplex"), 15666u),
                      std::make_pair(std::string("libquantum"), 636u),
                      std::make_pair(std::string("lbm"), 257u),
                      std::make_pair(std::string("sphinx3"), 4963u)));

class BatchBuilds : public ::testing::TestWithParam<std::string>
{};

TEST_P(BatchBuilds, VerifiesAndRuns)
{
    BatchSpec spec = batchSpec(GetParam());
    spec.targetStaticLoads = 0; // skip padding for speed
    ir::Module m = buildBatch(spec);
    EXPECT_TRUE(ir::verify(m));
    isa::Image image = pcc::compilePlain(m);
    sim::Machine machine;
    machine.load(image, 0);
    // Long enough for pointer-chase initializers to finish.
    machine.runFor(4'000'000);
    // Batch programs run forever and retire work.
    EXPECT_GT(machine.core(0).hpm().instructions, 10'000u);
    EXPECT_GT(machine.core(0).hpm().loads, 1'000u);
    EXPECT_EQ(machine.allHalted(), false);
}

INSTANTIATE_TEST_SUITE_P(AllSpec, BatchBuilds,
                         ::testing::ValuesIn(specBenchmarkNames()));

TEST(BatchGenerator, HotLoopLoadsAtMaxDepth)
{
    ir::Module m = buildBatch(batchSpec("libquantum"));
    const ir::Function *hot = m.findFunction("hot_0");
    ASSERT_NE(hot, nullptr);
    ir::LoopInfo loops(*hot);
    EXPECT_EQ(loops.maxDepth(), 2u);
    // Streaming loads live in the inner loop; outer loads at depth 1.
    size_t inner = 0, outer = 0;
    for (const auto &bb : hot->blocks()) {
        for (const auto &inst : bb.insts) {
            if (inst.op != ir::Opcode::Load)
                continue;
            if (loops.atMaxDepth(bb.id))
                ++inner;
            else if (loops.depth(bb.id) >= 1)
                ++outer;
        }
    }
    EXPECT_EQ(inner, batchSpec("libquantum").streamLoadsPerIter);
    EXPECT_EQ(outer, batchSpec("libquantum").outerLoads);
}

TEST(BatchGenerator, ColdFunctionsNeverExecute)
{
    BatchSpec spec = batchSpec("er-naive");
    ir::Module m = buildBatch(spec);
    ASSERT_NE(m.findFunction("cold_0"), nullptr);
    isa::Image image = pcc::compilePlain(m);
    sim::Machine machine;
    sim::Process &proc = machine.load(image, 0);
    std::set<std::string> seen;
    for (int i = 0; i < 500; ++i) {
        machine.runFor(2'000);
        const isa::FunctionInfo *fi =
            proc.image().functionAt(machine.core(0).pc());
        if (fi)
            seen.insert(fi->name);
    }
    for (const auto &name : seen)
        EXPECT_EQ(name.rfind("cold_", 0), std::string::npos) << name;
}

TEST(BatchGenerator, PointerChaseVisitsManyLines)
{
    BatchSpec spec = batchSpec("bst");
    spec.targetStaticLoads = 0;
    spec.streamBytes = 1 << 16; // small for a fast init
    ir::Module m = buildBatch(spec);
    isa::Image image = pcc::compilePlain(m);
    sim::Machine machine;
    machine.load(image, 0);
    machine.runFor(3'000'000);
    // A full-period chase touches the whole array: L1 must miss a
    // lot (random-ish order, 64 KiB > L1).
    const sim::HpmCounters &h = machine.core(0).hpm();
    EXPECT_GT(h.l1Misses, h.loads / 8);
}

TEST(BatchGenerator, PhasesAlternate)
{
    BatchSpec spec = batchSpec("bzip2"); // 2 phases
    spec.targetStaticLoads = 0;
    spec.callsPerPhase = 4;
    ir::Module m = buildBatch(spec);
    ASSERT_EQ(spec.phases, 2u);
    isa::Image image = pcc::compilePlain(m);
    sim::Machine machine;
    sim::Process &proc = machine.load(image, 0);
    std::set<std::string> seen;
    for (int i = 0; i < 3000 && seen.size() < 2; ++i) {
        machine.runFor(3'000);
        const isa::FunctionInfo *fi =
            proc.image().functionAt(machine.core(0).pc());
        if (fi && fi->name.rfind("hot_", 0) == 0)
            seen.insert(fi->name);
    }
    EXPECT_EQ(seen.size(), 2u);
}

TEST(BatchGenerator, RejectsBadGeometry)
{
    BatchSpec spec;
    spec.streamBytes = 1000; // not a power of two
    EXPECT_DEATH({ buildBatch(spec); }, "power of two");
}

TEST(ServiceGenerator, BuildsAndIdles)
{
    ir::Module m = buildService(serviceSpec("web-search"));
    EXPECT_TRUE(ir::verify(m));
    isa::Image image = pcc::compilePlain(m);
    sim::Machine machine;
    machine.load(image, 0);
    machine.runFor(500'000);
    const sim::HpmCounters &h = machine.core(0).hpm();
    // With no requests the service spins on an L1-resident line
    // (essentially every load hits L1) at an IPC deliberately close
    // to request-processing IPC (see service.cc).
    EXPECT_GT(h.ipc(), 0.25);
    EXPECT_LT(h.ipc(), 0.6);
    EXPECT_LT(h.l1Misses, h.loads / 100);
}

TEST(ServiceGenerator, ProcessesRequests)
{
    ir::Module m = buildService(serviceSpec("web-search"));
    isa::Image image = pcc::compilePlain(m);
    sim::Machine machine;
    sim::Process &proc = machine.load(image, 0);
    uint64_t req = globalAddr(image, m, kServiceReqGlobal);
    uint64_t done = globalAddr(image, m, kServiceDoneGlobal);

    proc.writeWord(req, 5);
    machine.runFor(machine.msToCycles(100));
    EXPECT_EQ(proc.readWord(done), 5u);
    EXPECT_EQ(proc.readWord(req), 0u);
}

TEST(ServiceGenerator, LoadRaisesMemoryActivity)
{
    ir::Module m = buildService(serviceSpec("web-search"));
    isa::Image image = pcc::compilePlain(m);
    sim::Machine machine;
    sim::Process &proc = machine.load(image, 0);
    uint64_t req = globalAddr(image, m, kServiceReqGlobal);

    machine.runFor(machine.msToCycles(50));
    uint64_t idle_misses = machine.core(0).hpm().l1Misses;
    proc.writeWord(req, 50);
    machine.runFor(machine.msToCycles(50));
    uint64_t busy_misses =
        machine.core(0).hpm().l1Misses - idle_misses;
    // Request processing reaches past L1; the idle spin does not.
    EXPECT_GT(busy_misses, idle_misses * 5 + 1000);
}

TEST(Driver, GlobalAddrFindsAndRejects)
{
    ir::Module m = buildService(serviceSpec("graph-analytics"));
    isa::Image image = pcc::compilePlain(m);
    EXPECT_GE(globalAddr(image, m, "svc_ws"), isa::kHdrBytes);
    EXPECT_DEATH({ globalAddr(image, m, "nope"); }, "no global");
}

TEST(Driver, IssuesAtConfiguredRate)
{
    ir::Module m = buildService(serviceSpec("web-search"));
    isa::Image image = pcc::compilePlain(m);
    sim::Machine machine;
    sim::Process &proc = machine.load(image, 0);
    ServiceDriver driver(machine, proc,
                         globalAddr(image, m, kServiceReqGlobal),
                         globalAddr(image, m, kServiceDoneGlobal));
    driver.setQps(60.0);
    driver.start();
    machine.runFor(machine.msToCycles(1000));
    EXPECT_NEAR(static_cast<double>(driver.issued()), 60.0, 4.0);
    // The service keeps up at this rate.
    EXPECT_NEAR(static_cast<double>(driver.completed()), 60.0, 6.0);
}

TEST(Driver, TraceChangesRate)
{
    ir::Module m = buildService(serviceSpec("web-search"));
    isa::Image image = pcc::compilePlain(m);
    sim::Machine machine;
    sim::Process &proc = machine.load(image, 0);
    ServiceDriver driver(machine, proc,
                         globalAddr(image, m, kServiceReqGlobal),
                         globalAddr(image, m, kServiceDoneGlobal));
    driver.setTrace({{0.0, 20.0}, {500.0, 200.0}});
    driver.start();
    machine.runFor(machine.msToCycles(400));
    EXPECT_DOUBLE_EQ(driver.currentQps(), 20.0);
    uint64_t early = driver.issued();
    machine.runFor(machine.msToCycles(400));
    EXPECT_DOUBLE_EQ(driver.currentQps(), 200.0);
    uint64_t late = driver.issued() - early;
    EXPECT_GT(late, early * 3);
}

TEST(Driver, RejectsUnorderedTrace)
{
    ir::Module m = buildService(serviceSpec("web-search"));
    isa::Image image = pcc::compilePlain(m);
    sim::Machine machine;
    sim::Process &proc = machine.load(image, 0);
    ServiceDriver driver(machine, proc, 64, 72);
    EXPECT_DEATH({ driver.setTrace({{100.0, 1.0}, {0.0, 2.0}}); },
                 "out of order");
}

TEST(ServiceSensitivity, StreamerDegradesServiceThroughput)
{
    // End-to-end contention check at workload level: a streaming
    // batch app sharing the LLC slows request processing.
    auto request_cycles = [&](bool with_streamer) {
        ir::Module m = buildService(serviceSpec("web-search"));
        isa::Image image = pcc::compilePlain(m);
        sim::Machine machine;
        sim::Process &proc = machine.load(image, 0);

        BatchSpec bs = batchSpec("libquantum");
        bs.targetStaticLoads = 0;
        ir::Module bm = buildBatch(bs);
        isa::Image bimg = pcc::compilePlain(bm);
        if (with_streamer)
            machine.load(bimg, 1);

        uint64_t req = globalAddr(image, m, kServiceReqGlobal);
        uint64_t done = globalAddr(image, m, kServiceDoneGlobal);
        ServiceDriver driver(machine, proc, req, done);
        driver.setQps(150.0);
        driver.start();
        machine.runFor(machine.msToCycles(1500));
        return driver.completed();
    };
    uint64_t alone = request_cycles(false);
    uint64_t contended = request_cycles(true);
    EXPECT_LT(static_cast<double>(contended),
              0.9 * static_cast<double>(alone));
}

} // namespace
} // namespace workloads
} // namespace protean
