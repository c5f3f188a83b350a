/**
 * @file
 * Figure 17 (+ Table III): servers required to run each
 * webservice/batch-mix pairing at equal throughput — 10k PC3D
 * servers vs the no-co-location policy's 10k + dedicated batch
 * servers. Batch utilizations come from live PC3D colocation
 * experiments at a 95% QoS target. With --fleet, utilizations come
 * from a real small-N fleet run (cells sharing the fleet compilation
 * service) instead of independent single-server colocations.
 */

#include "common.h"

#include "datacenter/experiment.h"
#include "datacenter/fleet_calibration.h"
#include "datacenter/scaleout.h"

using namespace protean;

int
main(int argc, char **argv)
{
    bool use_fleet = false;
    bench::ArgParser parser;
    parser.addSwitch("fleet", &use_fleet,
                     "measure utilizations from a shared-service "
                     "fleet run");
    bench::ObsConfig obs_cfg = parser.parse(argc, argv);
    {
        TextTable t3("Table III: workload mixes for scale-out "
                     "analysis");
        t3.setHeader({"Mix", "Members"});
        t3.addRow({"LS", "web-search, graph-analytics, "
                   "media-streaming"});
        for (const auto &[mix, members] :
             datacenter::tableThreeMixes()) {
            std::string joined;
            for (const auto &m : members)
                joined += (joined.empty() ? "" : ", ") + m;
            t3.addRow({mix, joined});
        }
        t3.print();
        std::printf("\n");
    }

    TextTable t("Figure 17: server count for equal throughput");
    t.setHeader({"Pairing", "PC3D", "No Co-location", "Extra"});
    for (const auto &service : workloads::webserviceNames()) {
        // Every member's server: the batch is set per member.
        datacenter::ColoConfig cell;
        cell.service = service;
        cell.qosTarget = 0.95;
        cell.qps = 120.0;
        cell.system = datacenter::System::Pc3d;
        cell.settleMs = 4000.0;
        cell.measureMs = 2000.0;
        for (const auto &[mix, members] :
             datacenter::tableThreeMixes()) {
            datacenter::ScaleOutResult r;
            if (use_fleet) {
                r = datacenter::analyzeMixFromFleet(cell, mix, members)
                        .scaleout;
            } else {
                std::vector<double> utils;
                for (const auto &batch : members) {
                    datacenter::ColoConfig cfg = cell;
                    cfg.batch = batch;
                    utils.push_back(
                        datacenter::runColocation(cfg).utilization);
                }
                r = datacenter::analyzeMix(service, mix, utils);
            }
            t.addRow({service + "/" + mix,
                      strformat("%uk", r.pc3dServers / 1000),
                      strformat("%.1fk", r.noColoServers / 1000.0),
                      strformat("%.1fk",
                                (r.noColoServers - r.pc3dServers) /
                                1000.0)});
        }
    }
    t.print();
    std::printf("\npaper shape: 3.5k-8k extra servers needed "
                "without co-location\n");
    bench::exportObs(obs_cfg);
    return 0;
}
