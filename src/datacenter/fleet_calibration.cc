#include "datacenter/fleet_calibration.h"

#include <memory>

#include "fleet/client.h"
#include "fleet/cluster.h"
#include "runtime/runtime.h"
#include "support/logging.h"

namespace protean {
namespace datacenter {

FleetMixResult
analyzeMixFromFleet(const ColoConfig &cell,
                    const std::string &mix_name,
                    const std::vector<std::string> &batches,
                    const ScaleOutParams &params)
{
    if (batches.empty())
        fatal("analyzeMixFromFleet: empty mix");

    fleet::CompileService svc{fleet::ServiceConfig{}};
    fleet::Cluster cluster(svc);

    // One cell per member: a whole colocated server. Cells running
    // the same batch binary produce identical content keys, which is
    // what the shared service dedups.
    std::vector<std::unique_ptr<ColoCell>> cells;
    for (const std::string &batch : batches) {
        ColoConfig cfg = cell;
        cfg.batch = batch;
        cfg.system = System::Pc3d;
        uint32_t id = static_cast<uint32_t>(cells.size());
        cfg.backendFactory = [&svc, id](sim::Machine &m,
                                        uint32_t runtime_core) {
            return std::make_unique<fleet::RemoteBackend>(
                svc, m, id, runtime_core);
        };
        cells.push_back(std::make_unique<ColoCell>(cfg));
        cluster.addMachine(cells.back()->machine());
    }

    cluster.runFor(cell.machine.msToCycles(cell.settleMs));
    for (auto &c : cells)
        c->beginMeasure();
    cluster.runFor(cell.machine.msToCycles(cell.measureMs));

    FleetMixResult res;
    for (auto &c : cells) {
        ColoResult cr = c->finish();
        res.utils.push_back(cr.utilization);
        res.qos.push_back(cr.qos);
        res.serverCompileCycles +=
            c->runtime()->compiler().compileCycles();
    }

    res.service = svc.stats();
    svc.exportObsMetrics();
    res.scaleout = analyzeMix(cell.service, mix_name, res.utils,
                              params);
    return res;
}

} // namespace datacenter
} // namespace protean
