/**
 * @file
 * The multicore machine: cores, shared memory system, processes and
 * an event calendar.
 *
 * Simulation is event-driven at instruction granularity: the core
 * with the smallest local clock steps next, so interleaving at the
 * shared L3 and DRAM is deterministic. Scheduled events (runtime
 * monitoring ticks, compile completions, load-trace changes) fire
 * between instructions at exact cycles.
 */

#ifndef PROTEAN_SIM_MACHINE_H
#define PROTEAN_SIM_MACHINE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "isa/image.h"
#include "sim/core.h"
#include "sim/event_heap.h"
#include "sim/memsys.h"
#include "sim/process.h"

namespace protean {
namespace sim {

/**
 * Execution engine selection.
 *
 * Step is the reference semantics: one global scheduling decision
 * (min-cycle core scan + event peek) per instruction. Batch runs
 * whole horizons of instructions — bounded by the next event and the
 * until-cycle — as joint multi-core windows: every runnable core
 * runs fenced at shared-memory accesses, falling back to interleaved
 * stepping only for windows where cores actually interact. This
 * amortizes the scheduling overhead without changing a single
 * observable cycle (DESIGN.md §8, §13).
 */
enum class Engine : uint8_t { Step, Batch };

/** Process-wide default engine for new machines (initially Batch). */
Engine defaultEngine();
void setDefaultEngine(Engine e);

/** The simulated server. */
class Machine
{
  public:
    explicit Machine(const MachineConfig &cfg = MachineConfig{});
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    const MachineConfig &config() const { return cfg_; }

    uint32_t numCores() const
    {
        return static_cast<uint32_t>(cores_.size());
    }

    Core &core(uint32_t id);
    const Core &core(uint32_t id) const;

    MemorySystem &memsys() { return *memsys_; }

    /** Current global simulated time. */
    uint64_t now() const { return now_; }

    /** Select the execution engine (default: defaultEngine()). */
    void setEngine(Engine e) { engine_ = e; }
    Engine engine() const { return engine_; }

    /**
     * Create a process from an image and bind it to a core.
     * The core must currently be free. The image moves into the
     * process, so a caller that is done with it passes an rvalue.
     */
    Process &load(isa::Image image, uint32_t core_id);

    Process &process(uint32_t proc_id);

    /** Run until the global clock reaches until_cycle. */
    void run(uint64_t until_cycle);

    /** Run for a duration from now. */
    void runFor(uint64_t cycles) { run(now_ + cycles); }

    /** Run until every bound process halts (or until the cap). */
    void runToCompletion(uint64_t max_cycles = 1ULL << 40);

    /** True when no bound process is runnable. */
    bool allHalted() const;

    /** Schedule a callback at an absolute cycle (>= now). */
    void schedule(uint64_t cycle, std::function<void()> fn);

    /** Schedule a callback after a delay. */
    void scheduleAfter(uint64_t delay, std::function<void()> fn)
    {
        schedule(now_ + delay, std::move(fn));
    }

    /** Convert simulated milliseconds to cycles. */
    uint64_t msToCycles(double ms) const { return cfg_.msToCycles(ms); }

    /**
     * Begin periodic observability sampling: every period, per-core
     * HPM window deltas (IPC, L3 misses, nap share) land on the
     * tracer's `sim.core<N>` counter tracks and the shared memory
     * system's pressure on `sim.mem`. No-op when already sampling.
     */
    void startObsSampling(double period_ms);

    /**
     * Publish cumulative machine-level counters and gauges
     * (`sim.core<N>.*`, `sim.l3.misses`, `sim.dram.accesses`) into
     * the global metrics registry. Idempotent; call before export.
     */
    void exportObsMetrics() const;

  private:
    MachineConfig cfg_;
    std::unique_ptr<MemorySystem> memsys_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<std::unique_ptr<Process>> procs_;
    EventHeap events_;
    uint64_t now_ = 0;
    uint64_t eventSeq_ = 0;
    Engine engine_;
    bool obsSampling_ = false;
    uint64_t obsPeriod_ = 0;
    std::vector<HpmCounters> obsLast_;
    uint64_t obsLastDram_ = 0;
    /** Precomputed "sim.core<N>" tracer lane names. */
    std::vector<std::string> obsLanes_;

    /** Runnable core with the smallest clock; null if none. */
    Core *nextCore();

    /**
     * The scheduler's choice (exactly nextCore(): min cycle, lowest
     * index on ties) and the core that would be chosen if it were
     * absent, which bounds how far the choice may run without
     * changing the interleaving. Either is null when no such core.
     */
    std::pair<Core *, Core *> nextTwoCores();

    /** Reference engine: one scheduling decision per instruction. */
    void runStep(uint64_t until_cycle);

    /**
     * Horizon-batched engine (same observable behavior). Windows are
     * joint across cores: every runnable core runs fenced (stopping
     * before shared-memsys accesses, which commute-free instructions
     * never reach); only a window where some core parks at a shared
     * access falls back to runWindowInterleaved — per window, never
     * per instruction (DESIGN.md §13).
     */
    void runBatch(uint64_t until_cycle);

    /** Fallback for a window with shared-memsys interaction: pairwise
     *  (cycle, id)-bounded batching that reproduces the reference
     *  step interleaving exactly. */
    void runWindowInterleaved(uint64_t horizon);

    /** One observability sampling step (reschedules itself while the
     *  tracer stays enabled). */
    void obsSample();
};

} // namespace sim
} // namespace protean

#endif // PROTEAN_SIM_MACHINE_H
