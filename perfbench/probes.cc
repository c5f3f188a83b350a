/**
 * @file
 * Layer probes for the traced run. Each one calls a public function
 * of one layer on the workload's own generated inputs (its images,
 * its catalog masks, the machine's cache geometry) under a span per
 * call, so the per-call time always has its call count beside it.
 */

#include <algorithm>
#include <set>

#include "ir/serializer.h"
#include "pcc/pcc.h"
#include "runtime/attach.h"
#include "runtime/runtime.h"
#include "sim/machine.h"
#include "sim/memsys.h"
#include "support/compression.h"
#include "support/random.h"
#include "validate/validator.h"
#include "workloads.h"
#include "workloads/registry.h"

namespace perfbench {

using namespace protean;

namespace {

constexpr int kAttachReps = 4;
constexpr int kCtorReps = 2;
constexpr int kIrReps = 4;
/** Passes over the catalog for the codegen and validate probes. */
constexpr int kCatalogReps = 20;
/** NT masks per virtualized function, as FleetSim's catalog. */
const size_t kMasksPerFunction = fleet::FleetConfig{}.masksPerFunction;
constexpr uint64_t kMemsysAccesses = 1u << 19;

} // namespace

SimCounts
countsOf(const sim::Machine &m)
{
    SimCounts c;
    for (uint32_t i = 0; i < m.numCores(); ++i) {
        const sim::HpmCounters &h = m.core(i).hpm();
        c.instructions += h.instructions;
        c.memOps += h.loads + h.stores;
        c.l1Misses += h.l1Misses;
        c.l3Accesses += h.l3Accesses;
        c.l3Misses += h.l3Misses;
        c.sbHits += m.core(i).superblockStats().hits;
        c.sbMisses += m.core(i).superblockStats().misses;
    }
    return c;
}

std::unique_ptr<ProbeImage>
makeProbeImage(const std::string &batch)
{
    auto p = std::make_unique<ProbeImage>();
    p->batch = batch;
    p->module = workloads::buildBatch(workloads::batchSpec(batch));
    p->image = pcc::compile(p->module);
    p->slots = pcc::chooseVirtualizedCallees(
        p->module, pcc::EdgePolicy::MultiBlockCallees);
    std::vector<ir::FuncId> funcs;
    for (const auto &[f, slot] : p->slots) {
        (void)slot;
        funcs.push_back(f);
    }
    std::sort(funcs.begin(), funcs.end());
    for (ir::FuncId f : funcs) {
        std::vector<ir::LoadId> loads;
        for (const auto &bb : p->module.function(f).blocks())
            for (const auto &inst : bb.insts)
                if (inst.op == ir::Opcode::Load &&
                    inst.loadId != ir::kInvalidId)
                    loads.push_back(inst.loadId);
        std::set<size_t> depths;
        for (size_t k = 1; k <= kMasksPerFunction; ++k)
            depths.insert(std::max<size_t>(
                1, (loads.size() * k + kMasksPerFunction - 1) /
                       kMasksPerFunction));
        if (loads.empty())
            depths = {0};
        for (size_t n : depths) {
            BitVector mask(p->module.numLoads());
            for (size_t i = 0; i < n; ++i)
                mask.set(loads[i]);
            p->catalog.emplace_back(f, mask);
        }
    }
    return p;
}

void
runImageProbes(const std::vector<std::unique_ptr<ProbeImage>> &images,
               Spans &spans, Report &report)
{
    for (const auto &img : images) {
        sim::Machine machine(sim::MachineConfig{});
        sim::Process &proc = machine.load(img->image, 0);
        {
            std::vector<runtime::Attachment> kept;
            for (int r = 0; r < kAttachReps; ++r) {
                Spans::Scope s(&spans, "runtime.attach");
                kept.push_back(runtime::attach(proc));
            }
        }

        std::vector<uint64_t> keys;
        for (int r = 0; r < kCtorReps; ++r) {
            sim::Machine m(sim::MachineConfig{});
            sim::Process &p = m.load(img->image, 0);
            std::unique_ptr<runtime::ProteanRuntime> rt;
            {
                Spans::Scope s(&spans, "runtime.ctor");
                rt = std::make_unique<runtime::ProteanRuntime>(m, p);
            }
            if (keys.empty()) {
                runtime::RuntimeCompiler &rc = rt->compiler();
                for (const auto &[f, mask] : img->catalog)
                    keys.push_back(
                        rc.contentKey(f, rc.maskKey(f, mask)));
            }
        }

        const std::vector<uint8_t> blob(
            img->image.initialData.begin() +
                static_cast<std::ptrdiff_t>(img->image.irBase),
            img->image.initialData.begin() +
                static_cast<std::ptrdiff_t>(img->image.irBase +
                                            img->image.irSizeBytes));
        for (int r = 0; r < kIrReps; ++r) {
            std::vector<uint8_t> bytes;
            {
                Spans::Scope s(&spans, "ir.decompress");
                bytes = decompress(blob);
            }
            std::unique_ptr<ir::Module> mod;
            {
                Spans::Scope s(&spans, "ir.deserialize");
                mod = ir::deserialize(bytes);
            }
            uint64_t hash = 0;
            for (ir::FuncId f = 0; f < mod->numFunctions(); ++f) {
                {
                    Spans::Scope s(&spans, "ir.function_hash");
                    hash = ir::functionHash(*mod, f);
                }
                if (r > 0)
                    continue;
                // The embedded blob must round-trip to the IR the
                // image was compiled from.
                ++report.checks;
                if (hash != ir::functionHash(img->module, f))
                    report.badChecks.push_back(
                        img->batch + ": embedded IR hash differs for " +
                        mod->function(f).name());
            }
        }

        validate::Validator v(img->module, img->image, img->slots,
                              validate::ValidateConfig{});
        for (int r = 0; r < kCatalogReps; ++r) {
            for (size_t i = 0; i < img->catalog.size(); ++i) {
                const auto &[f, mask] = img->catalog[i];
                codegen::LowerOptions opts;
                opts.layout = &img->image.layout;
                opts.virtualized = &img->slots;
                opts.ntMask = &mask;
                {
                    Spans::Scope s(&spans, "codegen.lower");
                    codegen::lowerFunction(img->module,
                                           img->module.function(f), opts);
                }

                runtime::CompileJob job;
                job.contentKey = keys[i];
                job.func = f;
                job.name = img->module.function(f).name();
                job.ntMask = mask;
                validate::Verdict verdict;
                {
                    Spans::Scope s(&spans, "validate.call");
                    verdict = v.validate(job);
                }
                ++report.checks;
                if (!verdict.pass)
                    report.badChecks.push_back(
                        img->batch + "/" + job.name +
                        ": validate rejected (" + verdict.reason + ")");
            }
        }
    }
}

void
runMemsysProbe(uint64_t seed, Spans &spans, uint64_t *calls)
{
    sim::MachineConfig mc;
    sim::MemorySystem ms(mc);
    sim::HpmCounters hpm;
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x3e3);
    const uint64_t line = mc.l1.lineBytes;

    // Stream 1: words of lines spread over half the L1.
    const uint64_t l1_lines = mc.l1.sizeBytes / 2 / line;
    std::vector<uint64_t> hit(kMemsysAccesses);
    for (uint64_t &a : hit)
        a = rng.nextBelow(l1_lines) * line + rng.nextBelow(line / 8) * 8;
    // Stream 2: sequential lines over 8x the L3, in runs of 64 lines
    // that are each non-temporal or normal by a seeded coin.
    const uint64_t base = 1ULL << 32;
    std::vector<uint8_t> nt(kMemsysAccesses);
    for (uint64_t i = 0; i < kMemsysAccesses; i += 64) {
        uint8_t flag = rng.nextBool() ? 1 : 0;
        for (uint64_t j = i; j < std::min(i + 64, kMemsysAccesses); ++j)
            nt[j] = flag;
    }
    const uint64_t span_lines = 8ULL * mc.l3.sizeBytes / line;

    uint64_t now = 0;
    for (uint64_t a : hit) // fill the L1 before timing
        now += ms.access(0, a, false, now, hpm).latency;
    {
        Spans::Scope s(&spans, "memsys.hit");
        for (uint64_t a : hit)
            now += ms.access(0, a, false, now, hpm).latency;
    }
    {
        Spans::Scope s(&spans, "memsys.miss");
        for (uint64_t i = 0; i < kMemsysAccesses; ++i)
            now += ms.access(0, base + (i % span_lines) * line,
                             nt[i] != 0, now, hpm).latency;
    }
    *calls = kMemsysAccesses;
}

} // namespace perfbench
