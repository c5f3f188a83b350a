/**
 * @file
 * The benchmark's workloads and layer probes.
 *
 *  - colo: colocation cells of the Fig. 12-15 grid, one at a time.
 *  - fleet / fleet-faults: 16-server soplex fleets advanced in fixed
 *    simulated slices, healthy or under the intensity-1.0 fault mix.
 *
 * Each workload has an untraced pass (the end-to-end numbers), a
 * traced pass that does the same work under spans, and a writer for
 * its reference digests.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "codegen/lowering.h"
#include "fleet/fleet.h"
#include "ir/module.h"
#include "isa/image.h"
#include "sim/machine.h"
#include "support/bitvector.h"

namespace perfbench {

// ----------------------------- colo ------------------------------- //

/**
 * The drawn cells. Without spans each runs through
 * datacenter::runColocation (the end-to-end pass); with spans each is
 * rebuilt from ColoCell steps under spans and its machine counters go
 * to *counts (the traced pass).
 */
Report runColo(const RunArgs &args, Spans *spans = nullptr,
               SimCounts *counts = nullptr);

/** Batches the colo draw uses (probe inputs). */
std::vector<std::string> coloBatches();

void writeColoRefs(const std::string &path);

// ----------------------------- fleet ------------------------------ //

/**
 * Fleet episodes stepped on `lanes` WorkerPool lanes. With `spans`
 * non-null, the constructor and every slice are recorded; `finals`
 * (optional) receives each episode's last FleetStats.
 */
Report runFleet(const RunArgs &args, bool faults, uint32_t lanes,
                Spans *spans, std::vector<protean::fleet::FleetStats>
                                  *finals);

/** One server of the fleet run alone for an episode's length:
 *  the HPM and superblock counters the fleet does not expose. */
SimCounts fleetServerProbe();

void writeFleetRefs(const std::string &path, bool faults);

// ----------------------------- probes ----------------------------- //

/** HPM and superblock counters of a machine, summed over cores. */
SimCounts countsOf(const protean::sim::Machine &m);

/** A workload's protean binary and the catalog its fleet would
 *  request: every virtualized function with nested NT prefix
 *  masks, the shapes PC3D deploys. */
struct ProbeImage
{
    std::string batch;
    protean::ir::Module module;
    protean::isa::Image image;
    protean::codegen::VirtualizationMap slots;
    std::vector<std::pair<protean::ir::FuncId, protean::BitVector>>
        catalog;
};

std::unique_ptr<ProbeImage> makeProbeImage(const std::string &batch);

/** Attach, runtime, ir, codegen and validate probes on `images`.
 *  A validate reject is a failed check in `report`. */
void runImageProbes(
    const std::vector<std::unique_ptr<ProbeImage>> &images,
    Spans &spans, Report &report);

/** MemorySystem::access on the default machine geometry: an
 *  L1-resident stream and a stream past L3 with NT and normal
 *  fills, each under one span named memsys.hit / memsys.miss. */
void runMemsysProbe(uint64_t seed, Spans &spans, uint64_t *calls);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
