/**
 * @file
 * ReQoS baseline (Tang et al., ASPLOS 2013 — reference [10] of the
 * paper).
 *
 * ReQoS protects high-priority co-runners purely by napping the
 * low-priority application: a feedback controller adjusts the nap
 * intensity until the co-runners' QoS (measured with the same
 * flux-probe mechanism PC3D uses) meets the target. It never
 * transforms code, which is exactly why PC3D outperforms it on
 * hint-friendly workloads — napping sacrifices host throughput
 * one-for-one, while non-temporal hints shed cache pressure almost
 * for free.
 */

#ifndef PROTEAN_REQOS_REQOS_H
#define PROTEAN_REQOS_REQOS_H

#include <memory>

#include "runtime/monitor.h"
#include "runtime/qos.h"
#include "sim/machine.h"

namespace protean {
namespace reqos {

/** Controller tuning; the control law's gains are fixed
 *  (reqos.cc). */
struct ReQosOptions
{
    double qosTarget = 0.95;
};

/** Nap-only QoS feedback controller. */
class ReQosController
{
  public:
    /**
     * @param machine The machine.
     * @param governor Nap governor of the throttled (host) core.
     * @param qos QoS monitor over the co-runners (start() is called
     *        by this controller).
     */
    ReQosController(sim::Machine &machine,
                    runtime::NapGovernor &governor,
                    runtime::QosMonitor &qos,
                    const ReQosOptions &opts = ReQosOptions{});

    ~ReQosController();

    /** Begin controlling. */
    void start();

    /** Current nap intensity. */
    double nap() const { return nap_; }

    /** Most recent QoS observation. */
    double lastQos() const { return lastQos_; }

    uint64_t windows() const { return windows_; }

  private:
    sim::Machine &machine_;
    runtime::NapGovernor &governor_;
    runtime::QosMonitor &qos_;
    ReQosOptions opts_;
    runtime::HpmMonitor hpm_;
    std::vector<runtime::PhaseDetector> coPhase_;
    Ewma qosSmooth_;
    double nap_ = 0.0;
    double lastQos_ = 1.0;
    uint64_t windows_ = 0;
    bool started_ = false;
    std::shared_ptr<bool> alive_;

    void window();
};

} // namespace reqos
} // namespace protean

#endif // PROTEAN_REQOS_REQOS_H
