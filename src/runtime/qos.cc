#include "runtime/qos.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/logging.h"

namespace protean {
namespace runtime {

namespace {

/** EWMA weight for the solo-IPS reference. */
constexpr double kSoloAlpha = 0.5;
/** The first few probes run at a faster cadence and are averaged
 *  arithmetically, priming the solo reference quickly before the
 *  steady 1%-overhead cadence takes over. */
constexpr uint32_t kPrimingProbes = 3;

} // namespace

NapGovernor::NapGovernor(sim::Machine &machine, uint32_t core)
    : machine_(machine), core_(core)
{
}

void
NapGovernor::setControllerNap(double f)
{
    controllerNap_ = std::clamp(f, 0.0, 1.0);
    obs::metrics().counter("runtime.nap.interventions").inc();
    obs::metrics().gauge("runtime.nap.controller")
        .set(controllerNap_);
    obs::tracer().counter("runtime.qos", "controller_nap",
                          controllerNap_);
    apply();
}

void
NapGovernor::setProbeActive(bool active)
{
    probeActive_ = active;
    apply();
}

void
NapGovernor::apply()
{
    machine_.core(core_).setNapIntensity(
        probeActive_ ? 1.0 : controllerNap_);
}

QosMonitor::QosMonitor(sim::Machine &machine, NapGovernor &governor,
                       std::vector<uint32_t> co_cores,
                       const QosOptions &opts)
    : machine_(machine), governor_(governor),
      coCores_(std::move(co_cores)), opts_(opts)
{
    for (size_t i = 0; i < coCores_.size(); ++i) {
        solo_.emplace_back(SoloEstimator(kSoloAlpha));
        winStart_.push_back(machine_.core(coCores_[i]).hpm());
        winStartCycle_.push_back(machine_.now());
    }
}

size_t
QosMonitor::indexOf(uint32_t co_core) const
{
    for (size_t i = 0; i < coCores_.size(); ++i) {
        if (coCores_[i] == co_core)
            return i;
    }
    panic("QosMonitor: core %u is not a monitored co-runner", co_core);
}

void
QosMonitor::start()
{
    if (started_)
        return;
    started_ = true;
    primingLeft_ = kPrimingProbes;
    machine_.scheduleAfter(machine_.msToCycles(opts_.initialDelayMs),
                           [this] { beginProbe(); });
}

void
QosMonitor::reprime()
{
    obs::metrics().counter("runtime.qos.reprimes").inc();
    obs::tracer().instant("runtime.qos", "reprime");
    for (auto &est : solo_)
        est.invalidate();
    primingLeft_ = kPrimingProbes;
    // The regular cadence keeps running; the next probes simply feed
    // the fresh estimators. Pull the next probe forward if one is
    // not already imminent.
    if (started_ && !probeInFlight_) {
        machine_.scheduleAfter(machine_.msToCycles(20.0), [this] {
            if (!probeInFlight_)
                beginProbe();
        });
    }
}

void
QosMonitor::beginProbe()
{
    if (probeInFlight_)
        return;
    probeInFlight_ = true;
    governor_.setProbeActive(true);
    tainted_ = true;
    ++probes_;

    std::vector<sim::HpmCounters> snaps;
    snaps.reserve(coCores_.size());
    for (uint32_t c : coCores_)
        snaps.push_back(machine_.core(c).hpm());
    uint64_t start_cycle = machine_.now();

    machine_.scheduleAfter(
        machine_.msToCycles(opts_.probeLenMs),
        [this, snaps = std::move(snaps), start_cycle]() mutable {
            endProbe(std::move(snaps), start_cycle);
        });
}

void
QosMonitor::endProbe(std::vector<sim::HpmCounters> snaps,
                     uint64_t start_cycle)
{
    uint64_t elapsed = machine_.now() - start_cycle;
    obs::metrics().counter("runtime.qos.probes").inc();
    obs::tracer().complete("runtime.qos", "flux_probe", start_cycle,
                           machine_.now());
    for (size_t i = 0; i < coCores_.size(); ++i) {
        sim::HpmCounters delta =
            machine_.core(coCores_[i]).hpm() - snaps[i];
        if (elapsed > 0) {
            double ips = static_cast<double>(delta.instructions) /
                static_cast<double>(elapsed);
            if (ips > 0.0)
                solo_[i].add(ips, kPrimingProbes);
        }
    }
    governor_.setProbeActive(false);
    probeInFlight_ = false;
    if (primingLeft_ > 0)
        --primingLeft_;

    double period = primingLeft_ > 0 ? opts_.primingPeriodMs
        : opts_.probePeriodMs;
    machine_.scheduleAfter(
        machine_.msToCycles(period - opts_.probeLenMs),
        [this] { beginProbe(); });
}

double
QosMonitor::soloIps(uint32_t co_core) const
{
    return solo_[indexOf(co_core)].value();
}

double
QosMonitor::qosWindow(uint32_t co_core)
{
    size_t i = indexOf(co_core);
    sim::HpmCounters cur = machine_.core(co_core).hpm();
    sim::HpmCounters delta = cur - winStart_[i];
    uint64_t elapsed = machine_.now() - winStartCycle_[i];
    winStart_[i] = cur;
    winStartCycle_[i] = machine_.now();

    if (elapsed == 0 || !solo_[i].primed())
        return 1.0;
    double ips = static_cast<double>(delta.instructions) /
        static_cast<double>(elapsed);
    double q = ips / solo_[i].value();
    return std::min(q, 1.5); // clamp probe-window artifacts
}

double
QosMonitor::minQosWindow()
{
    double q = 1.0;
    for (uint32_t c : coCores_)
        q = std::min(q, qosWindow(c));
    obs::metrics().gauge("runtime.qos.min").set(q);
    obs::tracer().counter("runtime.qos", "min_qos", q);
    return q;
}

} // namespace runtime
} // namespace protean
