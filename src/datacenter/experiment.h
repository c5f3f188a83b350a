/**
 * @file
 * Colocation experiment harness.
 *
 * Runs one (latency-sensitive app, batch app, QoS target, mitigation
 * system) cell of the paper's evaluation on a simulated server:
 *  - core 0: the latency-sensitive application (with a QPS driver
 *    when it is a service);
 *  - core 1: the batch application (protean binary);
 *  - core 2: the runtime (PC3D's compiles and analysis are charged
 *    here);
 *  - core 3: spare.
 *
 * The harness measures batch utilization (host BPS normalized to the
 * non-protean binary running alone) and delivered co-runner QoS
 * (IPS normalized to the flux-probe solo reference), the two axes of
 * Figures 9-15, and can record a timeline for Figure 16.
 */

#ifndef PROTEAN_DATACENTER_EXPERIMENT_H
#define PROTEAN_DATACENTER_EXPERIMENT_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/config.h"
#include "workloads/driver.h"

namespace protean {

namespace runtime {
class CompileBackend;
class ProteanRuntime;
}

namespace sim {
class Machine;
}

namespace datacenter {

/** Mitigation system under test. */
enum class System : uint8_t {
    None,  ///< co-locate with no mitigation
    ReQos, ///< nap-only baseline
    Pc3d,  ///< protean code + PC3D
};

/** One experiment cell. */
struct ColoConfig
{
    /** Latency-sensitive application (a service registry name). */
    std::string service = "web-search";
    /** Batch application (a batch registry name). */
    std::string batch = "libquantum";
    double qosTarget = 0.95;
    /** Service load; ignored when qpsTrace is set. */
    double qps = 60.0;
    /** Optional piecewise load trace (Figure 16). */
    std::vector<workloads::LoadStep> qpsTrace;
    System system = System::Pc3d;
    /** Time allowed for warmup + search before measuring. */
    double settleMs = 6000.0;
    /** Measurement duration. */
    double measureMs = 4000.0;
    /** Machine configuration. */
    sim::MachineConfig machine;
    /**
     * Optional compile-backend factory (Pc3d only). Called with the
     * cell's machine and the runtime core once both exist; the
     * returned backend is owned by the cell and handed to the
     * runtime. nullptr keeps the local (on-server) compiler. A
     * fleet::RemoteBackend factory routes this cell's compiles
     * through a shared fleet compilation service.
     */
    std::function<std::unique_ptr<runtime::CompileBackend>(
        sim::Machine &, uint32_t)> backendFactory;
};

/** Timeline sample for trace experiments. */
struct TraceSample
{
    double tMs = 0.0;
    double qps = 0.0;
    /** Host (batch) branches per cycle. */
    double hostBpc = 0.0;
    /** Co-runner QoS estimate. */
    double qos = 0.0;
    /** Runtime share of server cycles over the sample window. */
    double runtimeShare = 0.0;
    double nap = 0.0;
};

/** Experiment outputs. */
struct ColoResult
{
    /** Host BPS normalized to solo (the utilization metric). */
    double utilization = 0.0;
    /** Mean co-runner QoS over the measurement period. */
    double qos = 0.0;
    /** Runtime's share of all server cycles. */
    double runtimeShare = 0.0;
    /** Final nap intensity. */
    double nap = 0.0;
    /** PC3D search-space accounting (Pc3d only). */
    size_t fullLoads = 0;
    size_t activeLoads = 0;
    size_t maxDepthLoads = 0;
    /** Timeline (filled when sampleMs > 0 in runColocationTrace). */
    std::vector<TraceSample> trace;
};

struct ColoCellImpl;

/**
 * One live colocation cell, exposed for fleet experiments: N cells
 * (each its own server) can be advanced in lockstep by
 * fleet::Cluster while sharing one compilation service through
 * ColoConfig::backendFactory. runColocation() is the single-cell
 * convenience wrapper.
 */
class ColoCell
{
  public:
    explicit ColoCell(const ColoConfig &cfg);
    ~ColoCell();

    ColoCell(const ColoCell &) = delete;
    ColoCell &operator=(const ColoCell &) = delete;

    sim::Machine &machine();
    const ColoConfig &config() const { return cfg_; }

    /** The cell's protean runtime; nullptr unless system == Pc3d. */
    runtime::ProteanRuntime *runtime();

    /** Snapshot counters; call once the cell has settled. */
    void beginMeasure();

    /** Measure from the beginMeasure() snapshot to now. */
    ColoResult finish();

    /** Internal rig access (experiment.cc and trace harness). */
    ColoCellImpl &impl() { return *impl_; }

  private:
    ColoConfig cfg_;
    std::unique_ptr<ColoCellImpl> impl_;
};

/** Run one colocation cell. */
ColoResult runColocation(const ColoConfig &cfg);

/**
 * Run one cell while recording a timeline every sample_ms.
 * The run takes whole samples until it reaches cfg.settleMs +
 * cfg.measureMs; utilization/qos are measured from the first sample
 * boundary at or after cfg.settleMs to the end of the run.
 */
ColoResult runColocationTrace(const ColoConfig &cfg, double sample_ms);

/**
 * Solo BPS (branches per cycle) of the non-protean batch binary
 * running alone; memoized per (batch, machine geometry).
 */
double soloBatchBpc(const std::string &batch,
                    const sim::MachineConfig &mcfg);

} // namespace datacenter
} // namespace protean

#endif // PROTEAN_DATACENTER_EXPERIMENT_H
