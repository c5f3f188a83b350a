/**
 * @file
 * Fleet-calibrated scale-out analysis (Figures 17-18).
 *
 * The analytic scale-out model (scaleout.h) consumes per-application
 * batch utilizations; historically those came from independent
 * single-server colocation runs. This module measures them from a
 * real (small-N) fleet instead: one colocation cell per mix member —
 * each a full server with its latency-sensitive co-runner, PC3D
 * runtime and QoS control — advance in lockstep while sharing one
 * fleet compilation service, so the utilization
 * fed into Figure 17/18 reflects compile costs as a warehouse
 * deployment would actually pay them (amortized across servers,
 * paper Section V-E) rather than each server compiling alone.
 */

#ifndef PROTEAN_DATACENTER_FLEET_CALIBRATION_H
#define PROTEAN_DATACENTER_FLEET_CALIBRATION_H

#include <string>
#include <vector>

#include "datacenter/experiment.h"
#include "datacenter/scaleout.h"
#include "fleet/service.h"

namespace protean {
namespace datacenter {

/** One fleet-calibrated mix analysis. */
struct FleetMixResult
{
    /** Per-member utilization (order follows the mix). */
    std::vector<double> utils;
    /** Per-member QoS (order follows the mix). */
    std::vector<double> qos;
    /** Compilation-service counters over the whole run. */
    fleet::ServiceStats service;
    /** Compile cycles charged to servers (their install costs). */
    uint64_t serverCompileCycles = 0;
    /** The analytic model applied to the fleet-measured utils. */
    ScaleOutResult scaleout;
};

/**
 * Run a small-N fleet for one batch mix and feed the measured
 * utilizations through analyzeMix. Each member runs on one PC3D
 * server whose compiles go to a shared service (default
 * fleet::ServiceConfig).
 * @param cell Every server's cell: the co-runner (also the label),
 *        QoS target, load, settle/measure times and machine. Its
 *        batch, system and backend are set per member.
 * @param mix_name Batch-mix label (Table III: WL1-WL3).
 * @param batches The mix's member batch applications.
 */
FleetMixResult analyzeMixFromFleet(const ColoConfig &cell,
                                   const std::string &mix_name,
                                   const std::vector<std::string>
                                       &batches,
                                   const ScaleOutParams &params
                                   = ScaleOutParams{});

} // namespace datacenter
} // namespace protean

#endif // PROTEAN_DATACENTER_FLEET_CALIBRATION_H
