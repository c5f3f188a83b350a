/**
 * @file
 * Per-server continuous profiler: variant- and phase-attributed PC
 * samples plus a flip-experiment ledger.
 *
 * The paper's monitoring stack (Section III-B3) tells one server
 * which functions are hot; at fleet scale the interesting question
 * is *which variant of which function wins in which phase*. The
 * VariantProfiler closes that loop on each server:
 *
 *  - every PC sample the PcSampler attributes is folded into an
 *    obs::Profile bucket keyed by (function content hash, running
 *    variant's NT-mask key, current phase id), with the host core's
 *    cycle/instruction delta since the previous sample riding along;
 *  - a PhaseDetector fed the host's windowed IPC advances a
 *    monotonic per-server phase id (tests and scenario drivers can
 *    also script phases via advancePhase());
 *  - each dispatched flip opens an experiment: the windowed IPC
 *    before the flip is latched, and after `experimentTicks`
 *    monitoring ticks the IPC of the post-flip window is measured
 *    and the (before, after) pair is appended to the flip ledger.
 *
 * Everything here runs inside the owning machine's own quanta (tick
 * events and compile callbacks), touching only this server's state,
 * so fleet runs stay byte-identical serial or parallel; the
 * telemetry hub drains the profile and ledger at cluster barriers.
 */

#ifndef PROTEAN_RUNTIME_PROFILER_H
#define PROTEAN_RUNTIME_PROFILER_H

#include <string>
#include <vector>

#include "obs/profile.h"
#include "runtime/attach.h"
#include "runtime/monitor.h"
#include "sim/machine.h"

namespace protean {
namespace runtime {

/** One completed flip experiment. */
struct FlipRecord
{
    /** ir::functionHash of the flipped function. */
    uint64_t funcHash = 0;
    /** Restricted NT-mask key of the installed variant. */
    std::string mask;
    /** Phase id at dispatch time. */
    uint32_t phase = 0;
    /** Host windowed IPC over the ticks before the flip. */
    double ipcBefore = 0.0;
    /** Host windowed IPC over the experiment window after it. */
    double ipcAfter = 0.0;
    /** Cycle the variant went live. */
    uint64_t cycle = 0;
};

/** Per-server sampling profile + flip ledger (see file comment). */
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
     * phase detector (advancing the phase id on a detected change)
     * and matures any flip experiments whose window elapsed.
     */
    void onTick();

    /** A variant went live on the EVT: open a flip experiment. */
    void onFlipDispatched(ir::FuncId func, const std::string &mask);

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

    /** Completed flip experiments since the last drain. */
    const std::vector<FlipRecord> &ledger() const { return ledger_; }

    /** Take the ledger (telemetry scrape). */
    std::vector<FlipRecord> drainLedger();

    /** Content hash the profiler attributes `func` to. */
    uint64_t funcHash(ir::FuncId func) const;

  private:
    struct Experiment
    {
        FlipRecord record;
        uint32_t ticksLeft = 0;
        /** Host HPM snapshot at dispatch (after-IPC baseline). */
        sim::HpmCounters start;
    };

    sim::Machine &machine_;
    uint32_t hostCore_;
    const BinaryIr &ir_;
    obs::Profile profile_;
    std::vector<FlipRecord> ledger_;
    std::vector<Experiment> experiments_;
    PhaseDetector detector_;
    uint32_t phase_ = 0;
    /** Host windowed IPC of the last completed tick window. */
    double lastWindowIpc_ = 0.0;
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
