#include "datacenter/scaleout.h"

#include <cmath>

#include "support/logging.h"
#include "support/stats.h"

namespace protean {
namespace datacenter {

namespace {

constexpr uint32_t kCoresPerServer = 4;
/** CPU busy fraction of a latency-sensitive instance at the modeled
 *  load level. */
constexpr double kLsBusyFraction = 0.45;

/** Linear CPU-utilization power model, in units of peak power. */
double
serverPower(double util, double idle_fraction)
{
    return idle_fraction + (1.0 - idle_fraction) * util;
}

} // namespace

ScaleOutResult
analyzeMix(const std::string &service, const std::string &mix_name,
           const std::vector<double> &batch_utils,
           const ScaleOutParams &params)
{
    if (batch_utils.empty())
        fatal("analyzeMix: empty utilization vector");

    ScaleOutResult r;
    r.service = service;
    r.mixName = mix_name;
    r.meanUtilization = mean(batch_utils);
    r.pc3dServers = params.baseServers;

    // No-co-location: the LS tier keeps its 10k servers; matching the
    // PC3D cluster's batch throughput takes one dedicated (full
    // speed) server per unit of achieved utilization.
    double extra = static_cast<double>(params.baseServers) *
        r.meanUtilization;
    r.noColoServers = params.baseServers +
        static_cast<uint32_t>(std::ceil(extra));

    // Per-server CPU utilization: each instance occupies one core.
    double cores = kCoresPerServer;
    double ls_util = kLsBusyFraction / cores;
    double batch_util = r.meanUtilization / cores;

    double p_pc3d = static_cast<double>(params.baseServers) *
        serverPower(ls_util + batch_util, params.idlePowerFraction);
    double p_nocolo =
        static_cast<double>(params.baseServers) *
            serverPower(ls_util, params.idlePowerFraction) +
        extra * serverPower(1.0 / cores, params.idlePowerFraction);

    // Equal throughput by construction: efficiency ratio is the
    // inverse power ratio.
    r.energyEfficiencyRatio = p_nocolo / p_pc3d;
    return r;
}

const std::vector<std::pair<std::string, std::vector<std::string>>> &
tableThreeMixes()
{
    static const std::vector<
        std::pair<std::string, std::vector<std::string>>> mixes = {
        {"WL1", {"libquantum", "bzip2", "sphinx3", "milc"}},
        {"WL2", {"soplex", "bst", "milc", "lbm"}},
        {"WL3", {"sledge", "soplex", "sphinx3", "libquantum"}},
    };
    return mixes;
}

} // namespace datacenter
} // namespace protean
