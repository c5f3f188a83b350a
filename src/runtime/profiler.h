/**
 * @file
 * Per-server continuous profiler: variant- and phase-attributed PC
 * samples.
 *
 * The paper's monitoring stack (Section III-B3) tells one server
 * which functions are hot; at fleet scale the interesting question
 * is *which variant of which function runs hot in which phase*. The
 * VariantProfiler answers it on each server:
 *
 *  - every PC sample the PcSampler attributes is folded into an
 *    obs::Profile bucket keyed by (function content hash, running
 *    variant's NT-mask key, current phase id), with the host core's
 *    cycle/instruction delta since the previous sample riding along;
 *  - a PhaseDetector fed the host's windowed IPC advances a
 *    monotonic per-server phase id (tests and scenario drivers can
 *    also script phases via advancePhase()).
 *
 * Everything here runs inside the owning machine's own quanta (tick
 * events and compile callbacks), touching only this server's state,
 * so fleet runs stay byte-identical serial or parallel; the
 * telemetry hub drains the profile at cluster barriers.
 */

#ifndef PROTEAN_RUNTIME_PROFILER_H
#define PROTEAN_RUNTIME_PROFILER_H

#include <string>

#include "obs/profile.h"
#include "runtime/attach.h"
#include "runtime/monitor.h"
#include "sim/machine.h"

namespace protean {
namespace runtime {

/** Per-server sampling profile (see file comment). */
class VariantProfiler
{
  public:
    VariantProfiler(sim::Machine &machine, uint32_t host_core,
                    const BinaryIr &ir);

    /**
     * Fold one attributed PC sample into the profile. Called by the
     * PcSampler on its own sample cadence; `func` may be
     * ir::kInvalidId (unattributed), `mask` is the running variant's
     * restricted key ("" = original code).
     */
    void recordSample(ir::FuncId func, const std::string &mask);

    /**
     * One monitoring tick: folds the host's windowed IPC into the
     * phase detector (advancing the phase id on a detected change).
     */
    void onTick();

    /** Script a phase change directly (tests, scenario drivers). */
    void advancePhase() { ++phase_; }

    uint32_t phase() const { return phase_; }

    const obs::Profile &profile() const { return profile_; }

    /** Move the profile's contents into `into` (telemetry scrape;
     *  the local profile restarts empty). */
    void drainProfile(obs::Profile &into)
    {
        profile_.drainInto(into);
    }

    /** Content hash the profiler attributes `func` to. */
    uint64_t funcHash(ir::FuncId func) const;

  private:
    sim::Machine &machine_;
    uint32_t hostCore_;
    const BinaryIr &ir_;
    obs::Profile profile_;
    PhaseDetector detector_;
    uint32_t phase_ = 0;
    /** HPM snapshot at the last tick (IPC windows). */
    sim::HpmCounters lastTick_;
    /** HPM snapshot at the last recorded sample (attribution). */
    sim::HpmCounters lastSample_;

    sim::HpmCounters hostHpm() const;
    static double ipcOf(const sim::HpmCounters &delta);
};

} // namespace runtime
} // namespace protean

#endif // PROTEAN_RUNTIME_PROFILER_H
