/**
 * @file
 * Sandboxed PISA interpreter for differential validation.
 *
 * The tier-2 validator must execute *candidate* variant code — code a
 * (possibly miscompiled) backend just produced — and a miscompiled
 * instruction stream can do anything: jump past the end of the code
 * array, call through an unpatched direct-call slot, or compute an
 * unaligned address. The real sim::Core panics on all of those
 * (correct for vetted images, fatal for a validator), so the sandbox
 * is a separate functional interpreter that converts every would-be
 * panic into a trap recorded in the result. Its architectural
 * semantics are the core's by construction: both evaluate ALU ops
 * through isa::evalAlu, save register windows as isa::CallFrame and
 * address the EVT through isa::evtSlotAddr (isa/minst.h).
 *
 * The sandbox is purely functional: no caches, no cycle costs, no
 * event queue. What it records is exactly what differential
 * validation compares — final register state, the ordered memory
 * write log (as a digest), and the architectural event counts the
 * HPM would have seen (instructions, loads, stores, branches) —
 * plus the trap, if any. Hints are counted separately and excluded
 * from the step budget so an NT variant and its original execute the
 * same number of budgeted instructions and stay comparable even when
 * both runs are cut off at the limit.
 */

#ifndef PROTEAN_VALIDATE_SANDBOX_H
#define PROTEAN_VALIDATE_SANDBOX_H

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "isa/image.h"
#include "isa/minst.h"

namespace protean {
namespace validate {

/** Why a sandboxed run stopped before halting (None = clean halt). */
enum class Trap : uint8_t {
    None,          ///< ran to completion (Halt or top-level Ret)
    WildPc,        ///< fetched outside the code array
    UnpatchedCall, ///< CallDirect with an invalid target
    WildEvtSlot,   ///< CallIndirect through a slot past the EVT
    Unaligned,     ///< memory access not 8-byte aligned
    StepBudget,    ///< exceeded the per-run instruction budget
    CallDepth,     ///< call stack deeper than the sandbox allows
};

const char *trapName(Trap t);

/**
 * Functional model of an on-stack-replacement redirect for
 * differential validation (DESIGN.md §14): from its
 * `afterExecutions`-th *taken* transfer onward, the branch at `pc`
 * targets `dest` instead of its encoded target — exactly the visible
 * effect of runtime::RuntimeCompiler::osrRedirect patching a loop
 * back-edge while the loop is running. The sandbox applies no other
 * compensation, because the restricted NT-mask transform needs none:
 * a flipped run must fingerprint-match an uninterrupted one.
 */
struct OsrFlip
{
    isa::CodeAddr pc = isa::kInvalidCodeAddr;
    isa::CodeAddr dest = isa::kInvalidCodeAddr;
    /** Taken transfers of the branch before the redirect lands. */
    uint64_t afterExecutions = 0;
};

/** Architectural summary of one sandboxed run. */
struct SandboxResult
{
    Trap trap = Trap::None;
    /** Code address of the faulting fetch/instruction (trap only). */
    isa::CodeAddr trapPc = isa::kInvalidCodeAddr;
    /** Non-hint instructions executed (the budgeted count). */
    uint64_t steps = 0;
    uint64_t hints = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t branches = 0;
    /** Ordered memory-write log: FNV-1a over (addr, value) pairs. */
    uint64_t writeDigest = 0xcbf29ce484222325ULL;
    uint64_t writeCount = 0;
    /** Final register file. */
    isa::RegFile regs{};

    /**
     * Architectural fingerprint two equivalent runs must share. The
     * trap pc is deliberately excluded: equivalent code placed at
     * different base addresses traps at different pcs.
     */
    std::string fingerprint() const;

    /** True when two runs are architecturally indistinguishable. */
    bool equivalentTo(const SandboxResult &other) const
    {
        return fingerprint() == other.fingerprint();
    }
};

/**
 * One sandboxed machine. Memory is an overlay over the image's
 * initial data segment (reads fall through to initialData, then to
 * zero-fill, mirroring PagedMemory); each run() starts from a fresh
 * overlay and register file, so runs are independent and repeats are
 * bit-identical.
 */
class Sandbox
{
  public:
    /** Maximum call-stack depth before a CallDepth trap. */
    static constexpr size_t kMaxCallDepth = 512;

    explicit Sandbox(const isa::Image &image) : image_(image) {}

    /**
     * Run `code` from `entry` with r0..r3 = args until Halt,
     * top-level Ret, a trap, or `step_budget` non-hint instructions.
     * `code` is typically image.code with candidate variant code
     * appended; the EVT is read from the (overlaid) data segment, so
     * indirect calls dispatch exactly as on the real machine.
     *
     * `flip`, when non-null, models one OSR back-edge redirect
     * landing mid-run (see OsrFlip).
     */
    SandboxResult run(const std::vector<isa::MInst> &code,
                      isa::CodeAddr entry,
                      const std::array<uint64_t, 4> &args,
                      uint64_t step_budget,
                      const OsrFlip *flip = nullptr);

  private:
    const isa::Image &image_;
    /** Write overlay for the current run (word-addressed). */
    std::map<uint64_t, uint64_t> mem_;

    uint64_t readWord(uint64_t addr) const;
};

} // namespace validate
} // namespace protean

#endif // PROTEAN_VALIDATE_SANDBOX_H
