/**
 * @file
 * Datacenter scale-out analysis (paper Section V-E, Figures 17-18).
 *
 * Models a 10k-server cluster where every server co-runs one
 * latency-sensitive instance with one batch instance under PC3D.
 * A no-co-location policy needs the same 10k servers for the
 * latency-sensitive tier plus one extra dedicated server per unit of
 * batch throughput to match the PC3D cluster's output.
 *
 * Energy uses the linear CPU-utilization power model the paper
 * cites (Barroso et al.): P(u) = Pidle + (Ppeak - Pidle) * u, with
 * idle power a configurable fraction of peak. Efficiency is
 * throughput per Watt; since both clusters deliver identical
 * throughput by construction, the efficiency ratio is the inverse
 * power ratio.
 */

#ifndef PROTEAN_DATACENTER_SCALEOUT_H
#define PROTEAN_DATACENTER_SCALEOUT_H

#include <string>
#include <vector>

namespace protean {
namespace datacenter {

/** Cluster and power-model parameters. */
struct ScaleOutParams
{
    /** Servers in the PC3D-enabled cluster. */
    uint32_t baseServers = 10000;
    /** Idle power as a fraction of peak. */
    double idlePowerFraction = 0.5;
};

/** Result for one (webservice, batch-mix) pairing. */
struct ScaleOutResult
{
    std::string service;
    std::string mixName;
    /** Mean batch utilization under PC3D across the mix. */
    double meanUtilization = 0.0;
    uint32_t pc3dServers = 0;
    /** Total servers under the no-co-location policy. */
    uint32_t noColoServers = 0;
    /** PC3D energy efficiency normalized to no-co-location. */
    double energyEfficiencyRatio = 0.0;
};

/**
 * Analyze one pairing.
 * @param service Webservice name (labeling only).
 * @param mix_name Batch-mix label (Table III: WL1-WL3).
 * @param batch_utils Per-application PC3D utilization for the mix's
 *        members (from colocation experiments).
 */
ScaleOutResult analyzeMix(const std::string &service,
                          const std::string &mix_name,
                          const std::vector<double> &batch_utils,
                          const ScaleOutParams &params
                          = ScaleOutParams{});

/** The paper's Table III batch mixes. */
const std::vector<std::pair<std::string,
                            std::vector<std::string>>> &tableThreeMixes();

} // namespace datacenter
} // namespace protean

#endif // PROTEAN_DATACENTER_SCALEOUT_H
