#include "runtime/compiler.h"

#include <algorithm>

#include "codegen/cost.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/logging.h"

namespace protean {
namespace runtime {

namespace {

/** Dynamic-compile cost model. */
constexpr codegen::CompileCostModel kCostModel;

} // namespace

void
LocalCompileBackend::compile(const CompileJob &job,
                             std::function<
                                 void(const CompileOutcome &)> done)
{
    machine_.core(core_).stealCycles(job.costCycles);
    // The compiler backend is serial: queued compiles finish in
    // order, each after its own latency.
    uint64_t start = std::max(machine_.now(), backendFree_);
    CompileOutcome out;
    out.startCycle = start;
    out.readyCycle = start + job.costCycles;
    out.chargedCycles = job.costCycles;
    out.traceId = job.traceId;
    backendFree_ = out.readyCycle;
    done(out);
}

RuntimeCompiler::RuntimeCompiler(sim::Machine &machine,
                                 sim::Process &proc,
                                 const BinaryIr &ir,
                                 const codegen::VirtualizationMap &slots,
                                 uint32_t runtime_core,
                                 CompileBackend *backend)
    : machine_(machine), proc_(proc), ir_(ir), module_(ir.module()),
      slots_(slots)
{
    if (backend) {
        backend_ = backend;
    } else {
        ownedBackend_ = std::make_unique<LocalCompileBackend>(
            machine, runtime_core);
        backend_ = ownedBackend_.get();
    }
}

std::string
RuntimeCompiler::maskKey(ir::FuncId func, const BitVector &mask) const
{
    if (func >= module_.numFunctions())
        panic("RuntimeCompiler: bad function %u", func);
    std::string key = strformat("f%u:", func);
    for (ir::LoadId id : ir_.loads(func))
        key.push_back(id < mask.size() && mask.test(id) ? '1' : '0');
    return key;
}

uint64_t
RuntimeCompiler::contentKey(ir::FuncId func,
                            const std::string &key) const
{
    if (func >= module_.numFunctions())
        panic("RuntimeCompiler: bad function %u", func);
    // FNV-1a over the function's IR hash, the restricted mask bits
    // (skipping the function-id prefix, which is already covered by
    // the IR hash) and the codegen options in effect. Stable across
    // servers running the same binary.
    uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    mix(ir_.hash(func));
    size_t colon = key.find(':');
    for (size_t i = colon + 1; i < key.size(); ++i) {
        h ^= static_cast<uint8_t>(key[i]);
        h *= 0x100000001b3ULL;
    }
    mix(static_cast<uint64_t>(slots_.size()));
    return h;
}

isa::CodeAddr
RuntimeCompiler::compileNow(ir::FuncId func, const BitVector &mask,
                            const std::string &key)
{
    const ir::Function &fn = module_.function(func);

    codegen::LowerOptions opts;
    opts.layout = &proc_.image().layout;
    opts.virtualized = slots_.empty() ? nullptr : &slots_;
    opts.ntMask = &mask;
    codegen::LoweredFunction lowered =
        codegen::lowerFunction(module_, fn, opts);
    codegen::relocate(lowered, proc_.codeSize());

    // The append and every fixup below bump the process's
    // codeVersion(), so the core's decoded superblock cache retires
    // all stale blocks before the next dispatch — a flip can never
    // execute pre-install code for the installed range (DESIGN.md
    // §13).
    isa::CodeAddr entry = proc_.appendCode(lowered.code);
    // Direct calls inside the variant resolve to the original static
    // entries; virtualized callees already go through the EVT.
    for (auto [offset, callee] : lowered.directCallFixups) {
        isa::MInst patched = proc_.inst(entry + offset);
        patched.target = proc_.image().function(callee).entry;
        proc_.patchInst(entry + offset, patched);
    }

    VariantRecord rec;
    rec.func = func;
    rec.entry = entry;
    rec.end = proc_.codeSize();
    rec.key = key;
    rec.osr.entry = entry;
    rec.osr.headerPc.reserve(lowered.blockStarts.size());
    for (uint32_t off : lowered.blockStarts)
        rec.osr.headerPc.push_back(entry + off);
    rec.osr.sites.reserve(lowered.osrSites.size());
    for (const codegen::OsrSite &s : lowered.osrSites)
        rec.osr.sites.push_back({entry + s.offset, s.header});
    variants_.push_back(std::move(rec));
    cache_[key] = entry;
    return entry;
}

const OsrLowering &
RuntimeCompiler::staticOsr(ir::FuncId func)
{
    auto it = staticOsr_.find(func);
    if (it != staticOsr_.end())
        return it->second;

    // Re-lower with the image's own options (layout, virtualization,
    // no NT mask) to reproduce pcc's placement. Only the block/
    // back-edge structure is consumed; unpatched direct-call targets
    // are irrelevant here.
    const isa::FunctionInfo &fi = proc_.image().function(func);
    codegen::LowerOptions opts;
    opts.layout = &proc_.image().layout;
    opts.virtualized = slots_.empty() ? nullptr : &slots_;
    codegen::LoweredFunction lowered =
        codegen::lowerFunction(module_, module_.function(func), opts);
    if (fi.entry + lowered.code.size() != fi.end)
        panic("staticOsr: re-lowering %s produced %zu instructions; "
              "the image holds %u",
              module_.function(func).name().c_str(),
              lowered.code.size(), fi.end - fi.entry);

    OsrLowering tbl;
    tbl.entry = fi.entry;
    tbl.headerPc.reserve(lowered.blockStarts.size());
    for (uint32_t off : lowered.blockStarts)
        tbl.headerPc.push_back(fi.entry + off);
    tbl.sites.reserve(lowered.osrSites.size());
    for (const codegen::OsrSite &s : lowered.osrSites)
        tbl.sites.push_back({fi.entry + s.offset, s.header});
    return staticOsr_.emplace(func, std::move(tbl)).first->second;
}

size_t
RuntimeCompiler::osrSiteCount(ir::FuncId func)
{
    return staticOsr(func).sites.size();
}

uint32_t
RuntimeCompiler::osrRedirect(ir::FuncId func,
                             isa::CodeAddr target_entry)
{
    const OsrLowering *target = nullptr;
    if (target_entry == proc_.image().function(func).entry) {
        target = &staticOsr(func);
    } else {
        for (const VariantRecord &v : variants_) {
            if (v.func == func && v.entry == target_entry) {
                target = &v.osr;
                break;
            }
        }
    }
    if (!target)
        panic("osrRedirect: %u has no lowering at entry %u", func,
              target_entry);

    uint32_t patched = 0;
    auto redirect = [&](const OsrLowering &from) {
        for (const OsrLowering::Site &s : from.sites) {
            if (s.header >= target->headerPc.size())
                panic("osrRedirect: variant of %u lost block %u",
                      func, s.header);
            isa::CodeAddr dest = target->headerPc[s.header];
            isa::MInst inst = proc_.inst(s.pc);
            if (inst.op != isa::MOp::Jmp && inst.op != isa::MOp::Bnz)
                panic("osrRedirect: site %u of %u is not a branch",
                      s.pc, func);
            if (inst.target == dest)
                continue; // already points at the target lowering
            inst.target = dest;
            proc_.patchInst(s.pc, inst);
            ++patched;
        }
    };
    redirect(staticOsr(func));
    for (const VariantRecord &v : variants_) {
        if (v.func == func)
            redirect(v.osr);
    }
    return patched;
}

void
RuntimeCompiler::requestVariant(ir::FuncId func, const BitVector &mask,
                                std::function<void(isa::CodeAddr)>
                                on_ready, bool force_recompile)
{
    std::string key = maskKey(func, mask);
    auto it = cache_.find(key);
    if (!force_recompile && it != cache_.end()) {
        obs::metrics().counter("runtime.compile.cache_hits").inc();
        isa::CodeAddr entry = it->second;
        machine_.scheduleAfter(0, [on_ready = std::move(on_ready),
                                   entry] { on_ready(entry); });
        return;
    }

    const ir::Function &fn = module_.function(func);
    CompileJob job;
    job.contentKey = contentKey(func, key);
    job.func = func;
    job.costCycles = kCostModel.cost(fn);
    job.codeBytes = fn.instructionCount() * sizeof(isa::MInst);
    job.name = fn.name();
    job.ntMask = mask;

    backend_->compile(
        job,
        [this, func, mask, key,
         on_ready = std::move(on_ready)](const CompileOutcome &out) {
            if (out.failed || out.corrupted)
                panic("RuntimeCompiler: backend surfaced an "
                      "unresolved fault outcome; backends must "
                      "retry or fall back before completing");
            ++compiles_;
            compileCycles_ += out.chargedCycles;
            if (out.remoteHit)
                ++remoteHits_;
            obs::metrics().counter("runtime.compile.count").inc();
            obs::metrics().counter("runtime.compile.cycles")
                .inc(out.chargedCycles);
            obs::metrics().histogram("runtime.compile.cycles_hist")
                .observe(static_cast<double>(out.chargedCycles));
            // Both endpoints of the async compile are known once the
            // backend resolves, so the span can be recorded
            // immediately (compile_start == backend pickup, not
            // request arrival).
            if (obs::tracer().enabled()) {
                obs::tracer().complete(
                    "runtime.compiler",
                    strformat("compile %s",
                              module_.function(func).name().c_str()),
                    out.startCycle, out.readyCycle,
                    strformat("\"func\":%u,\"cycles\":%llu,"
                              "\"backend\":\"%s\",\"trace\":%llu",
                              func,
                              static_cast<unsigned long long>(
                                  out.chargedCycles),
                              backend_->backendName(),
                              static_cast<unsigned long long>(
                                  out.traceId)));
            }

            isa::CodeAddr entry = compileNow(func, mask, key);
            uint64_t at = std::max(out.readyCycle, machine_.now());
            machine_.schedule(at,
                              [on_ready = std::move(on_ready),
                               entry] { on_ready(entry); });
        });
}

} // namespace runtime
} // namespace protean
