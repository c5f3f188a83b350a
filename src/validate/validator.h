/**
 * @file
 * Translation validation for online NT-mask variants (DESIGN.md §12).
 *
 * PR 5's checksums catch *corrupted* variants; nothing before this
 * subsystem caught a *miscompiled* one — a self-consistent but wrong
 * instruction stream that the fleet service would happily install on
 * every shard and replica. The validator is the install gate that
 * closes that hole, with two tiers:
 *
 *  Tier 1 — structural equivalence modulo the NT mask. The protean
 *  transform is restricted by construction: relative to the original
 *  lowering, a variant may only (a) set the nonTemporal bit on
 *  exactly the masked loads and (b) insert the matching Hint
 *  immediately before each of them. The checker re-lowers the
 *  function with and without the mask and walks both streams in
 *  lockstep, pairing instructions (skipping variant Hints), checking
 *  every field, remapping branch targets through the pairing, and
 *  enforcing the Hint/NT discipline. *Any* deviation is a conclusive
 *  refutation — even a semantically harmless one, because the
 *  transform had no license to produce it. Linear time, no
 *  execution; cheap enough to gate every install.
 *
 *  Tier 2 — differential execution. When tier 1 cannot conclude
 *  (function beyond its walk budget) or when the mode escalates for
 *  defense in depth, original and candidate are run in a sandboxed
 *  interpreter (validate/sandbox.h) on seeded inputs and their
 *  architectural fingerprints compared: final registers, ordered
 *  memory-write digests, and HPM-style event counts (instructions
 *  net of hints, loads, stores, branches). Note the asymmetry tier 2
 *  cannot fix: a flipped NT bit is architecturally invisible, so
 *  only tier 1 catches that class — which is exactly why tier-1
 *  refutations are final and never "appealed" to tier 2.
 *
 * Escalation policy by mode:
 *   Off       gate disabled (FleetSim builds no validator).
 *   Ir        tier 1 only; an inconclusive tier 1 *rejects*
 *             (unproven code does not install).
 *   Diff      tier 1; inconclusive escalates to tier 2, which
 *             decides.
 *   Paranoid  tier 1; every tier-1 pass is additionally re-checked
 *             by tier 2 (both must pass).
 *
 * Verdicts are pure functions of (job, injected spec, config), so
 * the service may validate at install time inside advance() without
 * breaking serial-vs-parallel byte identity. Cycle costs are modeled
 * from instruction and step counts and charged to the shard backend
 * like compile cycles.
 */

#ifndef PROTEAN_VALIDATE_VALIDATOR_H
#define PROTEAN_VALIDATE_VALIDATOR_H

#include <cstdint>
#include <string>
#include <vector>

#include "codegen/lowering.h"
#include "faults/plan.h"
#include "ir/module.h"
#include "isa/image.h"
#include "runtime/compiler.h"
#include "support/bitvector.h"
#include "validate/sandbox.h"

namespace protean {
namespace validate {

/** How hard the install gate tries (see file header for policy). */
enum class Mode : uint8_t { Off, Ir, Diff, Paranoid };

/** Parse "off|ir|diff|paranoid" (fatal on anything else). */
Mode parseMode(const std::string &s);

const char *modeName(Mode m);

/** Gate configuration; the differential inputs and the cycle cost
 *  model are fixed (validator.cc). */
struct ValidateConfig
{
    Mode mode = Mode::Ir;
    /** Tier-1 walk budget in instructions (both streams summed);
     *  beyond it tier 1 is inconclusive and escalates. */
    uint64_t irCheckMaxInsts = 1u << 20;
};

/** Tier-1 structural outcomes. */
enum class Tier1 : uint8_t {
    Equivalent,   ///< proved: original modulo the mask
    Refuted,      ///< the streams deviate beyond the NT discipline
    Inconclusive, ///< walk budget exceeded; tier 2 must decide
};

/** What the gate decided for one candidate variant. */
struct Verdict
{
    bool pass = false;
    /** Tier that decided (1 or 2). */
    uint8_t tier = 1;
    /** Tier 2 ran (inconclusive tier 1, or paranoid re-check). */
    bool escalated = false;
    /** Modeled validation cycles (deterministic). */
    uint64_t cycles = 0;
    /** An injected miscompile was actually applied to the stream. */
    bool injectedApplied = false;
    /** Short stable explanation ("ok", "nt bit flipped @12", ...). */
    std::string reason;
};

/**
 * Mutate a candidate instruction stream per an injected miscompile
 * spec (the fault plan's model of a buggy backend). Site selection
 * is spec.siteSeed modulo the eligible sites for the kind; returns
 * false (stream untouched) when the function has no eligible site —
 * a store-free function cannot drop a store.
 */
bool applyMiscompile(std::vector<isa::MInst> &code,
                     const faults::MiscompileSpec &spec);

/** The install gate. One instance serves a whole fleet: validation
 *  is stateless, so a single validator attached to the shared
 *  CompileService gates every shard's installs. */
class Validator
{
  public:
    /**
     * @param module The fleet binary's IR (outlives the validator).
     * @param image Its compiled image (EVT + data for tier 2).
     * @param slots Virtualization map lowering was performed under.
     * @param cfg Gate mode and cost model.
     */
    Validator(const ir::Module &module, const isa::Image &image,
              const codegen::VirtualizationMap &slots,
              const ValidateConfig &cfg);

    const ValidateConfig &config() const { return cfg_; }

    /**
     * Gate one completed compile. Re-lowers the variant the backend
     * claims to have built, applies `inject` (non-null = the fault
     * plan says this build came out miscompiled), and proves or
     * refutes equivalence per the configured mode. Pure: identical
     * inputs give identical verdicts, cycles included.
     */
    Verdict validate(const runtime::CompileJob &job,
                     const faults::MiscompileSpec *inject =
                         nullptr) const;

    /** Lower one function under a module-wide NT mask, exactly as
     *  the runtime compiler would (unrelocated; exposed for tests
     *  and for composing candidate streams). */
    codegen::LoweredFunction lowerVariant(ir::FuncId func,
                                          const BitVector &mask)
        const;

    /** Tier 1 alone: structural check of `candidate` against the
     *  function's reference lowering under `mask`. */
    Tier1 structuralCheck(ir::FuncId func, const BitVector &mask,
                          const codegen::LoweredFunction &candidate,
                          std::string *reason = nullptr,
                          uint64_t *insts_walked = nullptr) const;

    /** Tier 2 alone: differential execution of `candidate` against
     *  the function's clean lowering on the seeded inputs. Returns
     *  pass/fail; accumulates sandboxed steps into *steps. */
    bool differentialCheck(ir::FuncId func, const BitVector &mask,
                           const codegen::LoweredFunction &candidate,
                           uint64_t *steps,
                           std::string *reason = nullptr) const;

    /**
     * OSR state-equivalence check (DESIGN.md §14): for every loop
     * back-edge of `func` and several flip timings, run the original
     * lowering with a sandboxed OsrFlip that redirects that back-edge
     * into the variant's corresponding loop header mid-run, and
     * require the architectural fingerprint to match an uninterrupted
     * reference run. Passing means the register/stack-identity
     * compensation claim holds at every OSR point of this
     * (func, mask) pair: crossing lowerings at a back-edge is
     * architecturally invisible. Accumulates sandboxed steps into
     * *steps when non-null. Trivially true for loop-free functions.
     */
    bool osrCheck(ir::FuncId func, const BitVector &mask,
                  uint64_t *steps = nullptr,
                  std::string *reason = nullptr) const;

  private:
    const ir::Module &module_;
    const isa::Image &image_;
    codegen::VirtualizationMap slots_;
    ValidateConfig cfg_;

    /** Append `fn` (relocated, direct calls patched to the static
     *  image entries) to a copy of the image code; returns the
     *  entry address of the appended code via *entry. */
    std::vector<isa::MInst> appendToImage(
        const codegen::LoweredFunction &fn, isa::CodeAddr *entry)
        const;

    /** Seeded argument registers for differential input `index`. */
    std::array<uint64_t, 4> diffArgs(ir::FuncId func,
                                     uint32_t index) const;
};

} // namespace validate
} // namespace protean

#endif // PROTEAN_VALIDATE_VALIDATOR_H
