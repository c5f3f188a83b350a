#include "pcc/pcc.h"

#include "ir/serializer.h"
#include "ir/verifier.h"
#include "support/logging.h"

namespace protean {
namespace pcc {

namespace {

uint64_t
alignUp(uint64_t v, uint64_t a)
{
    return (v + a - 1) / a * a;
}

} // namespace

codegen::VirtualizationMap
chooseVirtualizedCallees(const ir::Module &module, EdgePolicy policy)
{
    codegen::VirtualizationMap map;
    if (policy == EdgePolicy::None)
        return map;
    uint32_t slot = 0;
    for (ir::FuncId f = 0; f < module.numFunctions(); ++f) {
        const ir::Function &fn = module.function(f);
        bool eligible = policy == EdgePolicy::AllCallees ||
            fn.numBlocks() > 1;
        if (eligible)
            map[f] = slot++;
    }
    return map;
}

isa::Image
compile(ir::Module &module, const PccOptions &opts)
{
    module.renumberLoads();
    ir::verifyOrDie(module);

    const ir::Function *entry = module.findFunction(opts.entryName);
    if (!entry)
        fatal("pcc: module %s has no entry function '%s'",
              module.name().c_str(), opts.entryName.c_str());

    isa::Image image;
    image.name = module.name();
    image.entryFunc = entry->id();

    // --- Edge virtualization decisions.
    codegen::VirtualizationMap vmap =
        chooseVirtualizedCallees(module, opts.policy);
    image.evtCount = static_cast<uint32_t>(vmap.size());
    image.evtSlotFunc.assign(vmap.size(), ir::kInvalidId);
    for (auto [func, slot] : vmap)
        image.evtSlotFunc[slot] = func;

    // --- IR blob.
    std::vector<uint8_t> ir_blob;
    if (opts.embedIr)
        ir_blob = ir::serializeCompressed(module);

    // --- Data layout: header | EVT | IR | globals.
    uint64_t cursor = isa::kHdrBytes;
    image.evtBase = image.evtCount > 0 ? cursor : 0;
    cursor = isa::evtSlotAddr(cursor, image.evtCount); // EVT end
    cursor = alignUp(cursor, 64);
    image.irBase = ir_blob.empty() ? 0 : cursor;
    image.irSizeBytes = ir_blob.size();
    cursor += ir_blob.size();
    cursor = alignUp(cursor, 64);

    image.layout.globalBase.resize(module.numGlobals());
    for (const auto &g : module.globals()) {
        image.layout.globalBase[g.id] = cursor;
        cursor += alignUp(g.sizeBytes, 8);
        cursor = alignUp(cursor, 64);
    }
    image.layout.sizeBytes = cursor;

    // --- Lower every function.
    codegen::LowerOptions lopts;
    lopts.layout = &image.layout;
    lopts.virtualized = vmap.empty() ? nullptr : &vmap;

    std::vector<std::pair<uint32_t, ir::FuncId>> fixups;
    for (ir::FuncId f = 0; f < module.numFunctions(); ++f) {
        const ir::Function &fn = module.function(f);
        codegen::LoweredFunction lowered =
            codegen::lowerFunction(module, fn, lopts);

        isa::FunctionInfo fi;
        fi.name = fn.name();
        fi.irFunc = f;
        fi.entry = static_cast<isa::CodeAddr>(image.code.size());
        codegen::relocate(lowered, fi.entry);
        for (auto [offset, callee] : lowered.directCallFixups)
            fixups.emplace_back(fi.entry + offset, callee);
        image.code.insert(image.code.end(), lowered.code.begin(),
                          lowered.code.end());
        fi.end = static_cast<isa::CodeAddr>(image.code.size());
        image.functions.push_back(std::move(fi));
    }
    for (auto [addr, callee] : fixups)
        image.code[addr].target = image.functions[callee].entry;

    // --- Initial data contents. Binaries with no protean metadata
    // (plain baseline compiles) carry no discovery header, so the
    // runtime refuses to attach to them.
    image.initialData.assign(image.layout.sizeBytes, 0);
    if (image.evtCount == 0 && ir_blob.empty())
        return image;
    image.setInitialWord(isa::kHdrMagic, isa::kImageMagic);
    image.setInitialWord(isa::kHdrEvtBase, image.evtBase);
    image.setInitialWord(isa::kHdrEvtCount, image.evtCount);
    image.setInitialWord(isa::kHdrIrBase, image.irBase);
    image.setInitialWord(isa::kHdrIrSize, image.irSizeBytes);
    image.setInitialWord(isa::kHdrDataSize, image.layout.sizeBytes);

    for (uint32_t slot = 0; slot < image.evtCount; ++slot) {
        ir::FuncId f = image.evtSlotFunc[slot];
        image.setInitialWord(isa::evtSlotAddr(image.evtBase, slot),
                             image.functions[f].entry);
    }
    for (size_t i = 0; i < ir_blob.size(); ++i)
        image.initialData[image.irBase + i] = ir_blob[i];

    return image;
}

isa::Image
compilePlain(ir::Module &module, const std::string &entry_name)
{
    PccOptions opts;
    opts.policy = EdgePolicy::None;
    opts.embedIr = false;
    opts.entryName = entry_name;
    return compile(module, opts);
}

} // namespace pcc
} // namespace protean
