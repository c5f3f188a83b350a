#include "runtime/profiler.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/logging.h"

namespace protean {
namespace runtime {

namespace {

/** PhaseDetector sensitivity (see monitor.h). */
constexpr double kPhaseRateThreshold = 0.3;
constexpr double kPhaseAlpha = 0.25;
constexpr uint32_t kPhaseCooldown = 6;

} // namespace

VariantProfiler::VariantProfiler(sim::Machine &machine,
                                 uint32_t host_core,
                                 const BinaryIr &ir)
    : machine_(machine), hostCore_(host_core), ir_(ir),
      detector_(kPhaseRateThreshold, kPhaseAlpha, kPhaseCooldown)
{
    lastTick_ = hostHpm();
    lastSample_ = lastTick_;
}

sim::HpmCounters
VariantProfiler::hostHpm() const
{
    return machine_.core(hostCore_).hpm();
}

double
VariantProfiler::ipcOf(const sim::HpmCounters &delta)
{
    if (delta.cycles == 0)
        return 0.0;
    return static_cast<double>(delta.instructions) /
        static_cast<double>(delta.cycles);
}

uint64_t
VariantProfiler::funcHash(ir::FuncId func) const
{
    // Identical binaries on every server attribute to identical
    // hashes, which is what makes fleet-wide profile merging mean
    // something.
    return func < ir_.module().numFunctions() ? ir_.hash(func) : 0;
}

void
VariantProfiler::recordSample(ir::FuncId func,
                              const std::string &mask)
{
    sim::HpmCounters cur = hostHpm();
    sim::HpmCounters delta = cur - lastSample_;
    lastSample_ = cur;

    obs::ProfileKey key;
    key.funcHash = funcHash(func);
    key.mask = mask;
    key.phase = phase_;
    obs::ProfileCounts counts;
    counts.samples = 1;
    counts.cycles = delta.cycles;
    counts.instructions = delta.instructions;
    profile_.record(key, counts);
    if (key.funcHash != 0)
        profile_.setName(key.funcHash,
                         ir_.module().function(func).name());
}

void
VariantProfiler::onTick()
{
    sim::HpmCounters cur = hostHpm();
    sim::HpmCounters window = cur - lastTick_;
    lastTick_ = cur;
    double ipc = ipcOf(window);

    if (detector_.update(ipc)) {
        ++phase_;
        obs::metrics().counter("runtime.profiler.phase_changes")
            .inc();
        if (obs::tracer().enabled()) {
            obs::tracer().instant(
                "profiler", "phase_advance",
                strformat("\"phase\":%u,\"ipc\":%.6f", phase_, ipc));
        }
    }
}

} // namespace runtime
} // namespace protean
