/**
 * @file
 * PC3D — Protean Code for Cache Contention in Datacenters (paper
 * Section IV).
 *
 * Pc3dEngine is a protean-runtime decision engine that dynamically
 * mixes non-temporal-hint code variants with napping so that
 * co-running latency-sensitive applications meet their QoS targets
 * while the host batch application retains as much throughput as
 * possible.
 *
 * Lifecycle:
 *  - Warmup: prime the flux-probe solo reference and accumulate PC
 *    samples.
 *  - Search: build the reduced search space (pc3d/heuristics.h) and
 *    drive the greedy variant search (pc3d/search.h), one evaluation
 *    window at a time, dispatching variants through the protean
 *    runtime as the search requests them.
 *  - Settled: run the winning variant at its nap level; watch QoS
 *    and host/co-runner phases; re-enter Search on a violation or a
 *    co-phase change (reverting to the original code first, so an
 *    unloaded co-runner lets the host run at full speed).
 */

#ifndef PROTEAN_PC3D_PC3D_H
#define PROTEAN_PC3D_PC3D_H

#include "pc3d/heuristics.h"
#include "pc3d/search.h"
#include "runtime/qos.h"
#include "runtime/runtime.h"

namespace protean {
namespace pc3d {

/** Engine tuning; the rest of the engine's calibration is fixed
 *  (pc3d.cc). */
struct Pc3dOptions
{
    double qosTarget = 0.95;
    /** Reuse nap bounds across variants (ablation knob). */
    bool reuseNapBounds = true;
};

/** The PC3D decision engine. */
class Pc3dEngine : public runtime::DecisionEngine
{
  public:
    /**
     * @param qos QoS monitor over the co-runners (the engine calls
     *        start() on it).
     * @param opts Tuning.
     */
    explicit Pc3dEngine(runtime::QosMonitor &qos,
                        const Pc3dOptions &opts = Pc3dOptions{});

    void onStart(runtime::ProteanRuntime &rt) override;
    void onTick(runtime::ProteanRuntime &rt) override;

    enum class Mode { Warmup, Search, Settled };
    Mode mode() const { return mode_; }

    /** Search space of the most recent search. */
    const SearchSpace &space() const { return space_; }

    /** Current controller nap intensity. */
    double currentNap() const { return nap_; }

    uint64_t searchesStarted() const { return searches_; }
    uint64_t searchWindowsTotal() const { return searchWindows_; }

    /** Most recent settled-mode QoS observation. */
    double lastQos() const { return lastQos_; }

  private:
    runtime::QosMonitor &qos_;
    Pc3dOptions opts_;

    Mode mode_ = Mode::Warmup;
    SearchSpace space_;
    std::unique_ptr<VariantSearch> search_;
    BitVector dispatchedMask_;
    double nap_ = 0.0;
    double settledBestNap_ = 0.0;

    uint64_t windowEnd_ = 0;
    uint64_t searchStartCycle_ = 0;
    uint32_t pendingDispatch_ = 0;
    bool discardNextWindow_ = false;
    uint64_t searches_ = 0;
    uint64_t searchWindows_ = 0;
    double lastQos_ = 1.0;

    runtime::PhaseDetector hostPhase_{0.35};
    std::vector<runtime::PhaseDetector> coPhase_;

    void startSearch(runtime::ProteanRuntime &rt);
    void applyRequest(runtime::ProteanRuntime &rt);
    void applyMask(runtime::ProteanRuntime &rt, const BitVector &mask);
    void setNap(runtime::ProteanRuntime &rt, double nap);
    BitVector spaceToModuleMask(const BitVector &space_mask) const;
    void windowSearch(runtime::ProteanRuntime &rt);
    void windowSettled(runtime::ProteanRuntime &rt);
};

} // namespace pc3d
} // namespace protean

#endif // PROTEAN_PC3D_PC3D_H
