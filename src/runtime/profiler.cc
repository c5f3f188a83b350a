#include "runtime/profiler.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/logging.h"

namespace protean {
namespace runtime {

namespace {

/** Monitoring ticks a flip experiment spans before its after-IPC is
 *  read. */
constexpr uint32_t kExperimentTicks = 2;
static_assert(kExperimentTicks > 0);
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
    lastWindowIpc_ = ipcOf(window);

    if (detector_.update(lastWindowIpc_)) {
        ++phase_;
        obs::metrics().counter("runtime.profiler.phase_changes")
            .inc();
        if (obs::tracer().enabled()) {
            obs::tracer().instant(
                "profiler", "phase_advance",
                strformat("\"phase\":%u,\"ipc\":%.6f", phase_,
                          lastWindowIpc_));
        }
    }

    // Mature flip experiments whose window elapsed. Completion order
    // follows dispatch order (stable erase), so the ledger is
    // deterministic.
    for (size_t i = 0; i < experiments_.size();) {
        Experiment &e = experiments_[i];
        if (--e.ticksLeft > 0) {
            ++i;
            continue;
        }
        sim::HpmCounters after = hostHpm() - e.start;
        e.record.ipcAfter = ipcOf(after);
        ledger_.push_back(e.record);
        obs::metrics().counter("runtime.profiler.flip_records")
            .inc();
        experiments_.erase(experiments_.begin() +
                           static_cast<std::ptrdiff_t>(i));
    }
}

void
VariantProfiler::onFlipDispatched(ir::FuncId func,
                                  const std::string &mask)
{
    Experiment e;
    e.record.funcHash = funcHash(func);
    if (e.record.funcHash != 0)
        profile_.setName(e.record.funcHash,
                         ir_.module().function(func).name());
    e.record.mask = mask;
    e.record.phase = phase_;
    e.record.ipcBefore = lastWindowIpc_;
    e.record.cycle = machine_.now();
    e.ticksLeft = kExperimentTicks;
    e.start = hostHpm();
    experiments_.push_back(std::move(e));
}

std::vector<FlipRecord>
VariantProfiler::drainLedger()
{
    std::vector<FlipRecord> out;
    out.swap(ledger_);
    return out;
}

} // namespace runtime
} // namespace protean
