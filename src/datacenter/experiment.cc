#include "datacenter/experiment.h"

#include <map>
#include <memory>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "pc3d/pc3d.h"
#include "pcc/pcc.h"
#include "reqos/reqos.h"
#include "runtime/runtime.h"
#include "sim/machine.h"
#include "support/logging.h"
#include "workloads/registry.h"

namespace protean {
namespace datacenter {

namespace {

constexpr uint32_t kServiceCore = 0;
constexpr uint32_t kBatchCore = 1;
constexpr uint32_t kRuntimeCore = 2;

} // namespace

/** Everything a running colocation needs, with stable lifetimes. */
struct ColoCellImpl
{
    sim::Machine machine;
    ir::Module svcModule;
    ir::Module batchModule;
    isa::Image svcImage;
    isa::Image batchImage;
    sim::Process *svc = nullptr;
    sim::Process *batch = nullptr;
    std::unique_ptr<workloads::ServiceDriver> driver;
    std::unique_ptr<runtime::NapGovernor> governor;
    std::unique_ptr<runtime::QosMonitor> qos;
    std::unique_ptr<runtime::CompileBackend> backend;
    std::unique_ptr<runtime::ProteanRuntime> rt;
    std::unique_ptr<pc3d::Pc3dEngine> engine;
    std::unique_ptr<reqos::ReQosController> reqos;

    /** Measurement snapshot (beginMeasure / finish). */
    sim::HpmCounters host0;
    sim::HpmCounters co0;
    uint64_t measureStart = 0;
    bool measuring = false;

    explicit ColoCellImpl(const ColoConfig &cfg)
        : machine(cfg.machine),
          svcModule(workloads::buildService(
              workloads::serviceSpec(cfg.service))),
          batchModule(workloads::buildBatch(
              workloads::batchSpec(cfg.batch)))
    {
        if (cfg.machine.numCores < 3)
            fatal("runColocation: needs at least 3 cores");

        svcImage = pcc::compilePlain(svcModule);
        svc = &machine.load(svcImage, kServiceCore);

        batchImage = pcc::compile(batchModule);
        batch = &machine.load(batchImage, kBatchCore);

        uint64_t req = workloads::globalAddr(
            svcImage, svcModule, workloads::kServiceReqGlobal);
        uint64_t done = workloads::globalAddr(
            svcImage, svcModule, workloads::kServiceDoneGlobal);
        driver = std::make_unique<workloads::ServiceDriver>(
            machine, *svc, req, done);
        if (!cfg.qpsTrace.empty())
            driver->setTrace(cfg.qpsTrace);
        else
            driver->setQps(cfg.qps);
        driver->start();

        governor = std::make_unique<runtime::NapGovernor>(machine,
                                                          kBatchCore);
        qos = std::make_unique<runtime::QosMonitor>(
            machine, *governor,
            std::vector<uint32_t>{kServiceCore});

        switch (cfg.system) {
          case System::Pc3d: {
            runtime::RuntimeOptions ropts;
            ropts.runtimeCore = kRuntimeCore;
            if (cfg.backendFactory) {
                backend = cfg.backendFactory(machine, kRuntimeCore);
                ropts.compileBackend = backend.get();
            }
            rt = std::make_unique<runtime::ProteanRuntime>(
                machine, *batch, ropts);
            pc3d::Pc3dOptions popts;
            popts.qosTarget = cfg.qosTarget;
            engine = std::make_unique<pc3d::Pc3dEngine>(*qos, popts);
            rt->setEngine(engine.get());
            rt->start();
            break;
          }
          case System::ReQos: {
            reqos::ReQosOptions qopts;
            qopts.qosTarget = cfg.qosTarget;
            reqos = std::make_unique<reqos::ReQosController>(
                machine, *governor, *qos, qopts);
            reqos->start();
            break;
          }
          case System::None:
            qos->start();
            break;
        }
    }

    double
    currentNap() const
    {
        return governor->controllerNap();
    }

    uint64_t
    runtimeCycles() const
    {
        return rt ? rt->runtimeCycles() : 0;
    }
};

double
soloBatchBpc(const std::string &batch, const sim::MachineConfig &mcfg)
{
    // Memoized per batch name + geometry fingerprint.
    static std::map<std::string, double> cache;
    std::string key = strformat("%s/%u/%u/%llu", batch.c_str(),
                                mcfg.l3.sizeBytes, mcfg.dramLatency,
                                static_cast<unsigned long long>(
                                    mcfg.cyclesPerMs));
    auto it = cache.find(key);
    if (it != cache.end())
        return it->second;

    sim::Machine machine(mcfg);
    ir::Module module =
        workloads::buildBatch(workloads::batchSpec(batch));
    isa::Image image = pcc::compilePlain(module);
    machine.load(image, 0);

    machine.runFor(machine.msToCycles(300.0)); // warm caches
    sim::HpmCounters before = machine.core(0).hpm();
    uint64_t cycles = machine.msToCycles(1200.0);
    machine.runFor(cycles);
    sim::HpmCounters delta = machine.core(0).hpm() - before;
    double bpc = static_cast<double>(delta.branches) /
        static_cast<double>(cycles);
    cache[key] = bpc;
    return bpc;
}

ColoCell::ColoCell(const ColoConfig &cfg)
    : cfg_(cfg), impl_(std::make_unique<ColoCellImpl>(cfg))
{
}

ColoCell::~ColoCell() = default;

sim::Machine &
ColoCell::machine()
{
    return impl_->machine;
}

runtime::ProteanRuntime *
ColoCell::runtime()
{
    return impl_->rt.get();
}

void
ColoCell::beginMeasure()
{
    impl_->host0 = impl_->machine.core(kBatchCore).hpm();
    impl_->co0 = impl_->machine.core(kServiceCore).hpm();
    impl_->measureStart = impl_->machine.now();
    impl_->measuring = true;
}

ColoResult
ColoCell::finish()
{
    ColoCellImpl &rig = *impl_;
    if (!rig.measuring)
        fatal("ColoCell::finish called before beginMeasure");
    uint64_t cycles = rig.machine.now() - rig.measureStart;
    sim::HpmCounters host =
        rig.machine.core(kBatchCore).hpm() - rig.host0;
    sim::HpmCounters co =
        rig.machine.core(kServiceCore).hpm() - rig.co0;

    ColoResult result;
    double host_bpc = cycles == 0 ? 0.0 :
        static_cast<double>(host.branches) /
        static_cast<double>(cycles);
    result.utilization =
        host_bpc / soloBatchBpc(cfg_.batch, cfg_.machine);

    double solo = rig.qos->soloIps(kServiceCore);
    double co_ips = cycles == 0 ? 0.0 :
        static_cast<double>(co.instructions) /
        static_cast<double>(cycles);
    result.qos = solo > 0.0 ? std::min(co_ips / solo, 1.1) : 1.0;

    result.nap = rig.currentNap();
    if (rig.rt) {
        result.runtimeShare = rig.rt->serverCycleShare();
        result.fullLoads = rig.engine->space().fullProgramLoads;
        result.activeLoads = rig.engine->space().activeRegionLoads;
        result.maxDepthLoads = rig.engine->space().maxDepthLoads;
        obs::metrics().gauge("runtime.server_cycle_share")
            .set(result.runtimeShare);
    }
    rig.machine.exportObsMetrics();
    obs::metrics().gauge("experiment.utilization")
        .set(result.utilization);
    obs::metrics().gauge("experiment.qos").set(result.qos);
    return result;
}

ColoResult
runColocation(const ColoConfig &cfg)
{
    ColoCell cell(cfg);
    cell.machine().runFor(cell.machine().msToCycles(cfg.settleMs));
    cell.beginMeasure();
    cell.machine().runFor(cell.machine().msToCycles(cfg.measureMs));
    return cell.finish();
}

ColoResult
runColocationTrace(const ColoConfig &cfg, double sample_ms)
{
    if (sample_ms <= 0.0)
        fatal("runColocationTrace: sample_ms must be positive");
    ColoCell cell(cfg);
    ColoCellImpl &rig = cell.impl();
    std::vector<TraceSample> trace;

    double total_ms = cfg.settleMs + cfg.measureMs;
    uint64_t sample = rig.machine.msToCycles(sample_ms);
    // The timeline rides on the tracer: per-core HPM tracks plus the
    // experiment-level signals sampled below.
    rig.machine.startObsSampling(sample_ms);

    uint64_t measure_start = rig.machine.msToCycles(cfg.settleMs);
    sim::HpmCounters last_host = rig.machine.core(kBatchCore).hpm();
    sim::HpmCounters last_co = rig.machine.core(kServiceCore).hpm();
    uint64_t last_rtc = 0;
    uint64_t start = rig.machine.now();

    for (double t = 0.0; t < total_ms; t += sample_ms) {
        rig.machine.run(start + rig.machine.msToCycles(t) + sample);

        if (!rig.measuring && rig.machine.now() - start >= measure_start)
            cell.beginMeasure();

        sim::HpmCounters host = rig.machine.core(kBatchCore).hpm();
        sim::HpmCounters co = rig.machine.core(kServiceCore).hpm();
        sim::HpmCounters dh = host - last_host;
        sim::HpmCounters dc = co - last_co;
        last_host = host;
        last_co = co;

        TraceSample s;
        s.tMs = t + sample_ms;
        s.qps = rig.driver->currentQps();
        s.hostBpc = static_cast<double>(dh.branches) /
            static_cast<double>(sample);
        double solo = rig.qos->soloIps(kServiceCore);
        double co_ips = static_cast<double>(dc.instructions) /
            static_cast<double>(sample);
        s.qos = solo > 0.0 ? std::min(co_ips / solo, 1.2) : 1.0;
        uint64_t rtc = rig.runtimeCycles();
        s.runtimeShare = static_cast<double>(rtc - last_rtc) /
            (static_cast<double>(sample) *
             rig.machine.numCores());
        last_rtc = rtc;
        s.nap = rig.currentNap();
        obs::Tracer &tr = obs::tracer();
        tr.counter("experiment", "qps", s.qps);
        tr.counter("experiment", "host_bpc", s.hostBpc);
        tr.counter("experiment", "qos", s.qos);
        tr.counter("experiment", "runtime_share", s.runtimeShare);
        tr.counter("experiment", "nap", s.nap);
        trace.push_back(s);
    }

    ColoResult result = cell.finish();
    result.trace = std::move(trace);
    return result;
}

} // namespace datacenter
} // namespace protean
