/**
 * @file
 * Nap governance and flux-based QoS monitoring (paper Section IV-F).
 *
 * NapGovernor composes the two users of the nap mechanism — a QoS
 * controller's steady throttle and the flux probe's temporary full
 * nap — into a single effective intensity on the host core.
 *
 * QosMonitor measures co-runner quality of service as IPS relative
 * to IPS-running-alone, where the solo reference comes from flux
 * probes: periodically the host is fully napped for a short window
 * (40 ms every 4 s by default, matching the paper's 1% overhead) and
 * the co-runners' interference-free IPS is recorded.
 */

#ifndef PROTEAN_RUNTIME_QOS_H
#define PROTEAN_RUNTIME_QOS_H

#include <vector>

#include "sim/machine.h"
#include "support/stats.h"

namespace protean {
namespace runtime {

/** Composes controller and probe nap intensities on one core. */
class NapGovernor
{
  public:
    NapGovernor(sim::Machine &machine, uint32_t core);

    /** Steady throttle requested by a QoS controller. */
    void setControllerNap(double f);
    double controllerNap() const { return controllerNap_; }

    /** Flux probe engagement (full nap while active). */
    void setProbeActive(bool active);
    bool probeActive() const { return probeActive_; }

  private:
    sim::Machine &machine_;
    uint32_t core_;
    double controllerNap_ = 0.0;
    bool probeActive_ = false;

    void apply();
};

/** Flux-probe configuration. */
struct QosOptions
{
    /** Steady-state probe cadence (the paper's 40 ms per 4 s keeps
     *  flux overhead around 1%). */
    double probePeriodMs = 4000.0;
    double probeLenMs = 40.0;
    /** Delay before the first probe, so the co-runners have reached
     *  representative behavior. */
    double initialDelayMs = 200.0;
    /** Cadence of the first, priming probes (qos.cc). */
    double primingPeriodMs = 400.0;
};

/** Co-runner QoS measurement. */
class QosMonitor
{
  public:
    /**
     * @param machine The machine.
     * @param governor Nap governor of the host (probed) core.
     * @param co_cores Cores of the latency-sensitive co-runners.
     */
    QosMonitor(sim::Machine &machine, NapGovernor &governor,
               std::vector<uint32_t> co_cores,
               const QosOptions &opts = QosOptions{});

    /** Begin probing: runs a short priming burst to establish the
     *  solo reference, then settles into the probePeriodMs cadence. */
    void start();

    /**
     * Invalidate the solo reference and re-prime it with a fresh
     * probe burst. Call on a detected co-runner phase change: the
     * old reference describes the previous phase's behavior, and
     * QoS ratios against it are meaningless. Windows remain tainted
     * until the new reference is primed.
     */
    void reprime();

    /** True while the solo reference is not yet (re)established. */
    bool priming() const { return primingLeft_ > 0; }

    /** Solo-IPS reference for a co-runner core (0 until primed). */
    double soloIps(uint32_t co_core) const;

    /**
     * QoS of a co-runner over the window since the last qosWindow()
     * call on that core: windowed IPS / solo reference.
     */
    double qosWindow(uint32_t co_core);

    /** Minimum QoS across co-runners over their current windows. */
    double minQosWindow();

    /** True if a probe overlapped the window since the last reset,
     *  or the solo reference is still (re)priming — such windows are
     *  discarded by searchers and controllers. */
    bool windowTainted() const { return tainted_ || priming(); }

    /** Reset the taint flag (call when starting a new window). A
     *  window that begins while a probe is still in flight starts
     *  tainted. */
    void clearTaint() { tainted_ = governor_.probeActive(); }

    const std::vector<uint32_t> &coCores() const { return coCores_; }

    uint64_t probeCount() const { return probes_; }

  private:
    sim::Machine &machine_;
    NapGovernor &governor_;
    std::vector<uint32_t> coCores_;
    QosOptions opts_;

    /** Solo-IPS estimator: arithmetic mean over the priming probes,
     *  EWMA afterwards. */
    struct SoloEstimator
    {
        double sum = 0.0;
        uint32_t n = 0;
        Ewma ewma;

        explicit SoloEstimator(double alpha) : ewma(alpha) {}

        void
        add(double x, uint32_t priming)
        {
            ++n;
            if (n <= priming) {
                sum += x;
                ewma.reset();
                ewma.add(sum / n);
            } else {
                ewma.add(x);
            }
        }

        void
        invalidate()
        {
            sum = 0.0;
            n = 0;
            ewma.reset();
        }

        double value() const { return ewma.value(); }
        bool primed() const { return ewma.primed(); }
    };

    std::vector<SoloEstimator> solo_;
    /** Per-co-core (instructions, cycles) snapshot for windows. */
    std::vector<sim::HpmCounters> winStart_;
    std::vector<uint64_t> winStartCycle_;
    bool tainted_ = false;
    bool started_ = false;
    bool probeInFlight_ = false;
    uint32_t primingLeft_ = 0;
    uint64_t probes_ = 0;

    size_t indexOf(uint32_t co_core) const;
    void beginProbe();
    void endProbe(std::vector<sim::HpmCounters> snaps,
                  uint64_t start_cycle);
};

} // namespace runtime
} // namespace protean

#endif // PROTEAN_RUNTIME_QOS_H
