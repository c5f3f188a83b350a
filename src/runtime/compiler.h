/**
 * @file
 * The runtime (dynamic) compiler.
 *
 * Compiles variants of host functions from the embedded IR,
 * asynchronously with respect to the host: compile work is charged
 * through a pluggable CompileBackend, and the variant becomes
 * dispatchable once the modeled latency has elapsed. Variants are
 * cached locally by (function, restricted non-temporal mask).
 *
 * Backends decide where the compile cycles are spent:
 *  - LocalCompileBackend (the default) charges the designated runtime
 *    core on this server, serially — the single-server model of the
 *    paper's Section III-B;
 *  - fleet::RemoteBackend forwards the request to a fleet-wide
 *    compilation service keyed by content hash, so servers running
 *    the same binary amortize compiles across the cluster
 *    (Section V-E's WSC argument).
 */

#ifndef PROTEAN_RUNTIME_COMPILER_H
#define PROTEAN_RUNTIME_COMPILER_H

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "codegen/lowering.h"
#include "runtime/attach.h"
#include "sim/machine.h"
#include "support/bitvector.h"

namespace protean {
namespace runtime {

/**
 * OSR geometry of one lowering of a function (the static image copy
 * or a cached variant), in absolute code addresses. Because the
 * restricted NT-mask transform preserves block structure, the same
 * BlockId indexes the corresponding loop header in every lowering,
 * so a back-edge in lowering A can be retargeted to
 * `B.headerPc[site.header]` with register/stack-identity
 * compensation (DESIGN.md §14).
 */
struct OsrLowering
{
    isa::CodeAddr entry = isa::kInvalidCodeAddr;
    /** Absolute address of each IR block's first instruction. */
    std::vector<isa::CodeAddr> headerPc;
    /** One loop back-edge branch (absolute pc of the Jmp/Bnz). */
    struct Site
    {
        isa::CodeAddr pc = isa::kInvalidCodeAddr;
        ir::BlockId header = 0;
    };
    std::vector<Site> sites;
};

/** A compiled variant's bookkeeping record. */
struct VariantRecord
{
    ir::FuncId func = ir::kInvalidId;
    isa::CodeAddr entry = isa::kInvalidCodeAddr;
    isa::CodeAddr end = isa::kInvalidCodeAddr;
    /** Restricted mask key (the function's own load bits). */
    std::string key;
    /** Back-edge table for on-stack replacement. */
    OsrLowering osr;
};

/** One compile request as a backend sees it. */
struct CompileJob
{
    /**
     * Content address of the requested variant: a stable hash over
     * (function IR content, restricted NT mask, codegen options).
     * Identical binaries on different servers produce identical keys
     * for identical requests — the fleet cache's index.
     */
    uint64_t contentKey = 0;
    ir::FuncId func = ir::kInvalidId;
    /** Modeled backend compile cost, in cycles. */
    uint64_t costCycles = 0;
    /** Estimated variant code size (network transfer modeling). */
    uint64_t codeBytes = 0;
    /**
     * Distributed trace id (0 = untraced). Assigned by the
     * requesting client, carried through every hop — shard queue,
     * replica, compile, response — and echoed in the outcome, so all
     * spans of one request's cross-server life share an id in the
     * exported trace.
     */
    uint64_t traceId = 0;
    /** Function name (spans and debugging). */
    std::string name;
    /**
     * The module-wide NT mask the variant was requested under.
     * Carried so a service-side install gate (validate::Validator)
     * can re-derive what a correct backend must have produced for
     * this contentKey.
     */
    BitVector ntMask;
};

/** What a backend resolved a job to. */
struct CompileOutcome
{
    /** Cycle the backend started working on the job. */
    uint64_t startCycle = 0;
    /** Cycle the variant may be installed on the requester. */
    uint64_t readyCycle = 0;
    /** Cycles charged to the requesting server. */
    uint64_t chargedCycles = 0;
    /** Satisfied from a shared cache (no fresh compile anywhere). */
    bool remoteHit = false;
    /**
     * The service could not serve this request (shard down, crash
     * mid-compile). Only fault-aware layers (fleet::RemoteBackend)
     * ever see this: they retry, reroute, or fall back to a local
     * compile, so RuntimeCompiler never observes a failed outcome.
     */
    bool failed = false;
    /** Payload failed its checksum on delivery (in-transit
     *  corruption); same contract as `failed`. */
    bool corrupted = false;
    /** The request's distributed trace id, echoed back (0 = none). */
    uint64_t traceId = 0;
};

/**
 * Where compile work happens and what it costs.
 *
 * compile() may invoke `done` synchronously (local backend) or later
 * (remote backend, once the service responds); either way the
 * outcome's readyCycle is the earliest cycle the caller may dispatch
 * the variant.
 */
class CompileBackend
{
  public:
    virtual ~CompileBackend() = default;

    virtual void compile(const CompileJob &job,
                         std::function<void(const CompileOutcome &)>
                             done) = 0;

    /** Short label for traces ("local", "fleet"). */
    virtual const char *backendName() const = 0;
};

/**
 * The paper's single-server backend: compiles are charged to one
 * designated core and queue serially (one compiler thread).
 */
class LocalCompileBackend : public CompileBackend
{
  public:
    LocalCompileBackend(sim::Machine &machine, uint32_t core)
        : machine_(machine), core_(core)
    {
    }

    void compile(const CompileJob &job,
                 std::function<void(const CompileOutcome &)> done)
        override;

    const char *backendName() const override { return "local"; }

  private:
    sim::Machine &machine_;
    const uint32_t core_;
    /** Completion time of the last queued compile. */
    uint64_t backendFree_ = 0;
};

/** Asynchronous variant compiler with a code cache. */
class RuntimeCompiler
{
  public:
    /**
     * @param machine The simulated machine (for time and cycles).
     * @param proc The host process (receives appended code).
     * @param ir The attachment's IR product.
     * @param slots Virtualization map (nested calls stay indirect).
     * @param runtime_core Core charged with compile work.
     * @param backend Compile backend; nullptr selects an owned
     *        LocalCompileBackend on runtime_core.
     */
    RuntimeCompiler(sim::Machine &machine, sim::Process &proc,
                    const BinaryIr &ir,
                    const codegen::VirtualizationMap &slots,
                    uint32_t runtime_core,
                    CompileBackend *backend = nullptr);

    /**
     * Request a variant of func under a module-wide NT mask.
     * If an identical variant is cached locally, on_ready fires
     * immediately (still through the event queue at now). Otherwise
     * the request goes to the backend and on_ready fires when the
     * modeled latency elapses.
     */
    void requestVariant(ir::FuncId func, const BitVector &mask,
                        std::function<void(isa::CodeAddr)> on_ready,
                        bool force_recompile = false);

    /** All variants compiled so far (newest last). */
    const std::vector<VariantRecord> &variants() const
    {
        return variants_;
    }

    /** Variants materialized into this server's code cache. */
    uint64_t compileCount() const { return compiles_; }
    /** Compile cycles charged to this server (backend-dependent). */
    uint64_t compileCycles() const { return compileCycles_; }
    /** Requests the backend satisfied from a shared cache. */
    uint64_t remoteHits() const { return remoteHits_; }

    /** Restrict a module mask to one function's loads (cache key). */
    std::string maskKey(ir::FuncId func, const BitVector &mask) const;

    /** Content address of (func, restricted mask, options). */
    uint64_t contentKey(ir::FuncId func, const std::string &key) const;

    CompileBackend &backend() { return *backend_; }

    /**
     * OSR geometry of the function's *static* lowering, derived
     * lazily by re-lowering the embedded IR with the image's own
     * options (no NT mask) — only the structural metadata is used,
     * so direct-call targets need no patching. Panics if the
     * re-lowering disagrees with the image's code placement.
     */
    const OsrLowering &staticOsr(ir::FuncId func);

    /** Loop back-edges in the function (0 = no loops: a flip of
     *  this function can only take effect at re-entry). */
    size_t osrSiteCount(ir::FuncId func);

    /**
     * On-stack replacement redirect: patch the back-edge branches of
     * *every* lowering of `func` — the static code and each cached
     * variant, including the target's own (restoring a previously
     * redirected variant when flipping back) — to the corresponding
     * loop-header pcs of the lowering at `target_entry` (a variant
     * entry or the static entry). Writes go through
     * `Process::patchInst`, so the decoded superblock caches retire
     * via the codeVersion bump; branches already pointing at the
     * desired header are skipped.
     *
     * @return Number of branch instructions actually patched.
     */
    uint32_t osrRedirect(ir::FuncId func, isa::CodeAddr target_entry);

  private:
    sim::Machine &machine_;
    sim::Process &proc_;
    const BinaryIr &ir_;
    const ir::Module &module_;
    const codegen::VirtualizationMap &slots_;
    std::unique_ptr<LocalCompileBackend> ownedBackend_;
    CompileBackend *backend_;

    std::unordered_map<std::string, isa::CodeAddr> cache_;
    std::vector<VariantRecord> variants_;
    /** Lazily derived static-lowering OSR tables, by function. */
    std::unordered_map<ir::FuncId, OsrLowering> staticOsr_;
    uint64_t compiles_ = 0;
    uint64_t compileCycles_ = 0;
    uint64_t remoteHits_ = 0;

    isa::CodeAddr compileNow(ir::FuncId func, const BitVector &mask,
                             const std::string &key);
};

} // namespace runtime
} // namespace protean

#endif // PROTEAN_RUNTIME_COMPILER_H
