/**
 * @file
 * In-order simulated core.
 *
 * Single-issue, blocking loads. Each instruction costs one cycle
 * plus memory latency for loads. Calls use register windows: the
 * hardware call stack saves r4..r63, so compiled code carries no
 * callee-save sequences (see isa/minst.h).
 *
 * Two mechanisms external controllers use:
 *  - Napping: a duty-cycle throttle (the ReQoS/flux mechanism). With
 *    intensity f, the core sleeps for f of every nap period.
 *  - Stolen cycles: runtime work (dynamic compiles) charged to this
 *    core delays the host when they share a core.
 *
 * The core can also run in a binary-translation mode that models a
 *  DynamoRIO-style system's dispatch costs (Figure 4's baseline).
 */

#ifndef PROTEAN_SIM_CORE_H
#define PROTEAN_SIM_CORE_H

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "isa/minst.h"
#include "sim/config.h"
#include "sim/hpm.h"
#include "sim/process.h"

namespace protean {
namespace sim {

class MemorySystem;

/**
 * Decoded superblock dispatch statistics. Core-local and engine-
 * dependent (the Step engine never dispatches superblocks), so they
 * are exposed through accessors only and must never be published to
 * the metrics registry — exports stay byte-identical across engines.
 */
struct SuperblockStats
{
    uint64_t hits = 0;          ///< Dispatches served from the cache.
    uint64_t misses = 0;        ///< Dispatches that decoded a block.
    uint64_t invalidations = 0; ///< Blocks retired by version bumps.
};

/**
 * A pending flip-effect watch: the runtime armed it when a variant
 * was dispatched for `func`, and it fires the first time control
 * transfers into the variant's code range [lo, hi). Firing at
 * `target == entry` is an entry flip (the function was re-entered
 * through the EVT); any other landing point means an OSR redirect
 * moved a mid-loop execution. Watches are pure observation: firing
 * costs zero modeled cycles, so arming them never perturbs the
 * simulation (byte-identical exports with watches on or off).
 */
struct FlipWatch
{
    uint64_t id = 0;        ///< Runtime-side correlation key.
    uint32_t func = 0;      ///< ir::FuncId being flipped.
    isa::CodeAddr lo = 0;   ///< Variant code range start (inclusive).
    isa::CodeAddr hi = 0;   ///< Variant code range end (exclusive).
    isa::CodeAddr entry = 0; ///< Variant entry point.
};

/** One simulated core. */
class Core
{
  public:
    /** Flip-watch fire callback: (watch id, was an OSR landing,
     *  core-local cycle at the transfer). */
    using FlipHook = std::function<void(uint64_t, bool, uint64_t)>;

    Core(uint32_t id, const MachineConfig &cfg, MemorySystem &memsys);

    uint32_t id() const { return id_; }

    /** Bind a process and reset architectural state to its entry. */
    void bind(Process *proc);

    /** The bound process (may be null). */
    Process *process() { return proc_; }
    const Process *process() const { return proc_; }

    /** True when this core has runnable work. */
    bool runnable() const;

    /** Local time of this core. */
    uint64_t cycle() const { return cycle_; }

    /** Advance an idle core's clock (keeps spawn-time sane). */
    void syncIdleClock(uint64_t now);

    /**
     * Execute one instruction (or consume one nap/stolen interval).
     * Only call when runnable().
     */
    void step();

    /**
     * Execute instructions until cycle() >= horizon or the core stops
     * being runnable. Each iteration is exactly one step(), so the
     * observable state after run(h) equals stepping in a loop while
     * cycle() < h — the horizon-batched engine relies on this. The
     * hot loop dispatches decoded superblocks: dense pre-resolved
     * MInst runs cached per start address and keyed on the process's
     * codeVersion() (stale blocks retire before the next dispatch).
     */
    void run(uint64_t horizon);

    /**
     * Fenced run for the joint multi-core window (DESIGN.md §13):
     * like run(horizon), but stop *before* executing any instruction
     * that touches the shared memory system (Load, Store, or the
     * CallIndirect EVT read). Everything executed under the fence
     * touches only core-local state and this core's private process
     * memory, so fenced runs on different cores commute — the batch
     * engine may run them in any order without changing a byte.
     *
     * @return true when the core parked at a memsys-touching
     * instruction with cycle() < horizon (the caller must fall back
     * to interleaved stepping for the rest of the window); false when
     * the core reached the horizon or stopped being runnable.
     */
    bool runFenced(uint64_t horizon);

    /** Superblock dispatch stats (never exported; see above). */
    const SuperblockStats &superblockStats() const { return sbStats_; }

    /** Current program counter (PC-sampling interface). */
    isa::CodeAddr pc() const { return pc_; }

    /** Register read (tests). */
    uint64_t reg(uint32_t r) const { return regs_[r]; }

    const HpmCounters &hpm() const { return hpm_; }

    /** Nap intensity in [0, 1]: fraction of each period slept. */
    void setNapIntensity(double f);
    double napIntensity() const { return napIntensity_; }

    /** Charge runtime work to this core. */
    void stealCycles(uint64_t cycles);

    /** Enable/disable the binary-translation execution mode. */
    void setBtConfig(const BtConfig &bt);

    /** Install the flip-watch fire callback (the protean runtime). */
    void setFlipHook(FlipHook hook) { flipHook_ = std::move(hook); }

    /** Arm a flip-effect watch; fires (and is removed) at the first
     *  control transfer into [lo, hi). */
    void armFlipWatch(const FlipWatch &w) { flipWatches_.push_back(w); }

    /**
     * Supersede every pending watch for `func` with a newer dispatch:
     * each keeps its identity (and the runtime its request cycle) but
     * now fires when execution first reaches code at least as new as
     * the latest variant — the flip it was waiting for is subsumed.
     */
    void retargetFlipWatches(uint32_t func, isa::CodeAddr lo,
                             isa::CodeAddr hi, isa::CodeAddr entry);

  private:
    uint32_t id_;
    const MachineConfig &cfg_;
    MemorySystem &memsys_;

    Process *proc_ = nullptr;
    isa::CodeAddr pc_ = 0;
    isa::RegFile regs_{};
    std::vector<isa::CallFrame> stack_;

    uint64_t cycle_ = 0;
    HpmCounters hpm_;

    double napIntensity_ = 0.0;
    uint64_t stolenBacklog_ = 0;
    /** True iff stolenBacklog_ > 0 || napIntensity_ > 0. Maintained
     *  by the throttle producers so the batched hot loop pays one
     *  predictable branch instead of re-deriving the disjunction per
     *  instruction. While set, run() stays on the per-instruction
     *  path: nap windows must be re-checked before every step. */
    bool throttleActive_ = false;

    BtConfig bt_;
    std::unordered_set<isa::CodeAddr> btBlocks_;

    /** A straight-line run of pre-resolved instructions starting at
     *  some code address: extends up to and including the first
     *  control-flow instruction (or the decode cap). */
    struct Superblock
    {
        std::vector<isa::MInst> insts;
        /** Index of the first memsys-touching instruction (Load,
         *  Store, CallIndirect); insts.size() when none. Fenced runs
         *  stop here without executing it. */
        uint32_t memFence = 0;
    };

    /** Bounds decode work and cache growth per dispatch miss. */
    static constexpr size_t kMaxSuperblockLen = 128;

    /** Decoded blocks by start address. unordered_map nodes are
     *  stable, so references survive later insertions. */
    std::unordered_map<isa::CodeAddr, Superblock> sbCache_;
    /** Process codeVersion() the cache was decoded against. */
    uint64_t sbVersion_ = 0;
    SuperblockStats sbStats_;

    /** Armed flip-effect watches (usually none — one emptiness test
     *  per control transfer is the entire off-path cost). */
    std::vector<FlipWatch> flipWatches_;
    FlipHook flipHook_;

    /** Returns true if the core consumed a nap/stolen interval. */
    bool consumeThrottles();

    /** Recompute throttleActive_ after a producer-side change. */
    void refreshThrottleFlag()
    {
        throttleActive_ = stolenBacklog_ > 0 || napIntensity_ > 0.0;
    }

    /** Find-or-decode the superblock starting at pc_, retiring the
     *  whole cache first when the process's code version moved. */
    const Superblock &fetchSuperblock();

    static bool touchesMemsys(isa::MOp op)
    {
        return op == isa::MOp::Load || op == isa::MOp::Store ||
            op == isa::MOp::CallIndirect;
    }

    void execute(const isa::MInst &inst);
    uint64_t memAccess(uint64_t vaddr, bool nonTemporal);
    void doCall(isa::CodeAddr target);
    void doRet();
    void transferTo(isa::CodeAddr target, bool indirect);
    /** Fire-and-remove every watch covering `target` (cold path). */
    void fireFlipWatches(isa::CodeAddr target);
    void halt();
};

} // namespace sim
} // namespace protean

#endif // PROTEAN_SIM_CORE_H
