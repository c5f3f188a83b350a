#include "reqos/reqos.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/logging.h"

namespace protean {
namespace reqos {

namespace {

/** Control interval. */
constexpr double kWindowMs = 150.0;
/** EWMA weight for smoothing the per-window QoS estimate before
 *  acting on it (request quantization makes single windows noisy,
 *  especially at low load). */
constexpr double kQosAlpha = 0.3;
/** Proportional gain on QoS deficit. */
constexpr double kGain = 1.4;
/** Nap released per interval when QoS is comfortably met. */
constexpr double kRelease = 0.02;
constexpr double kNapCap = 0.98;
/** Hysteresis around the target. */
constexpr double kSlack = 0.01;

} // namespace

ReQosController::ReQosController(sim::Machine &machine,
                                 runtime::NapGovernor &governor,
                                 runtime::QosMonitor &qos,
                                 const ReQosOptions &opts)
    : machine_(machine), governor_(governor), qos_(qos), opts_(opts),
      hpm_(machine), qosSmooth_(kQosAlpha),
      alive_(std::make_shared<bool>(true))
{
    for (size_t i = 0; i < qos.coCores().size(); ++i)
        coPhase_.emplace_back(0.5);
}

ReQosController::~ReQosController()
{
    *alive_ = false;
}

void
ReQosController::start()
{
    if (started_)
        return;
    started_ = true;
    qos_.start();
    qos_.clearTaint();
    machine_.scheduleAfter(machine_.msToCycles(kWindowMs),
                           [this, alive = alive_] {
                               if (*alive)
                                   window();
                           });
}

void
ReQosController::window()
{
    // Co-runner phase changes invalidate the flux solo reference:
    // re-prime it and hold the nap until it is re-established.
    bool phase_change = false;
    for (size_t i = 0; i < qos_.coCores().size(); ++i) {
        sim::HpmCounters d = hpm_.window(qos_.coCores()[i]);
        phase_change |= coPhase_[i].update(d.ipc());
    }
    if (phase_change) {
        obs::tracer().instant("reqos", "co_phase_change");
        qos_.reprime();
    }

    double raw = qos_.minQosWindow();
    bool tainted = qos_.windowTainted() || phase_change;
    qos_.clearTaint();
    if (phase_change)
        qosSmooth_.reset();
    if (!tainted) {
        ++windows_;
        obs::metrics().counter("reqos.windows").inc();
        double smooth = qosSmooth_.add(raw);
        lastQos_ = smooth;
        obs::metrics().gauge("reqos.qos.last").set(smooth);
        obs::tracer().counter("reqos", "qos", smooth);
        // Fast attack on the raw signal (a QoS violation must be
        // arrested immediately), slow release on the smoothed one
        // (request quantization makes single windows noisy).
        if (raw < opts_.qosTarget - kSlack) {
            nap_ += kGain * (opts_.qosTarget - raw);
        } else if (smooth > opts_.qosTarget + kSlack) {
            nap_ -= std::min(kRelease +
                             0.3 * (smooth - opts_.qosTarget), 0.08);
        }
        nap_ = std::clamp(nap_, 0.0, kNapCap);
        governor_.setControllerNap(nap_);
    }
    machine_.scheduleAfter(machine_.msToCycles(kWindowMs),
                           [this, alive = alive_] {
                               if (*alive)
                                   window();
                           });
}

} // namespace reqos
} // namespace protean
