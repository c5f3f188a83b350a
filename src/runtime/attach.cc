#include "runtime/attach.h"

#include <map>
#include <mutex>
#include <string>

#include "ir/serializer.h"
#include "isa/image.h"
#include "support/logging.h"

namespace protean {
namespace runtime {

namespace {

/**
 * The product for a blob, decoded only if no live attachment holds
 * one. Keyed by the exact bytes, so equal keys decode to equal
 * products; weak, so a product dies with its last attachment.
 */
std::shared_ptr<const BinaryIr>
sharedIr(const std::vector<uint8_t> &blob)
{
    static std::mutex mu;
    static std::map<std::string, std::weak_ptr<const BinaryIr>> live;
    std::string key(blob.begin(), blob.end());
    std::lock_guard<std::mutex> lock(mu);
    auto it = live.find(key);
    if (it != live.end()) {
        if (auto ir = it->second.lock())
            return ir;
    }
    std::erase_if(live,
                  [](const auto &e) { return e.second.expired(); });
    auto ir = std::make_shared<const BinaryIr>(blob);
    live.emplace(std::move(key), ir);
    return ir;
}

} // namespace

BinaryIr::BinaryIr(const std::vector<uint8_t> &blob)
    : module_(ir::deserializeCompressed(blob))
{
    loads_.resize(module_->numFunctions());
    for (ir::FuncId f = 0; f < module_->numFunctions(); ++f) {
        for (const auto &bb : module_->function(f).blocks()) {
            for (const auto &inst : bb.insts) {
                if (inst.op == ir::Opcode::Load &&
                    inst.loadId != ir::kInvalidId)
                    loads_[f].push_back(inst.loadId);
            }
        }
        hashes_.push_back(ir::functionHash(*module_, f));
    }
}

Attachment
attach(const sim::Process &proc)
{
    Attachment att;

    uint64_t magic = proc.readWord(isa::kHdrMagic);
    if (magic != isa::kImageMagic)
        fatal("attach: process %s is not a protean binary "
              "(magic 0x%llx)", proc.name().c_str(),
              static_cast<unsigned long long>(magic));

    att.evtBase = proc.readWord(isa::kHdrEvtBase);
    att.evtCount =
        static_cast<uint32_t>(proc.readWord(isa::kHdrEvtCount));
    uint64_t ir_base = proc.readWord(isa::kHdrIrBase);
    uint64_t ir_size = proc.readWord(isa::kHdrIrSize);
    uint64_t data_size = proc.readWord(isa::kHdrDataSize);

    // Extract and re-hydrate the embedded IR.
    if (ir_base != 0 && ir_size != 0) {
        if (ir_size > data_size || ir_base > data_size - ir_size)
            fatal("attach: process %s places its IR blob (%llu bytes "
                  "at 0x%llx) outside its %llu-byte data segment",
                  proc.name().c_str(),
                  static_cast<unsigned long long>(ir_size),
                  static_cast<unsigned long long>(ir_base),
                  static_cast<unsigned long long>(data_size));
        // Byte extraction from word-oriented ptrace-style reads.
        std::vector<uint8_t> blob(static_cast<size_t>(ir_size));
        for (uint64_t i = 0; i < ir_size;) {
            uint64_t addr = ir_base + i;
            uint64_t word = proc.readWord(addr & ~7ULL);
            for (uint64_t b = addr & 7; b < 8 && i < ir_size; ++b, ++i)
                blob[static_cast<size_t>(i)] =
                    static_cast<uint8_t>(word >> (8 * b));
        }
        att.ir = sharedIr(blob);
    }

    // Recover slot -> function from the EVT's initial targets using
    // the binary's function table (symbol information).
    const isa::Image &image = proc.image();
    for (uint32_t slot = 0; slot < att.evtCount; ++slot) {
        auto entry = static_cast<isa::CodeAddr>(
            proc.readWord(isa::evtSlotAddr(att.evtBase, slot)));
        const isa::FunctionInfo *fi = image.functionAt(entry);
        if (!fi || fi->entry != entry) {
            warn("attach: EVT slot %u does not point at a function "
                 "entry; skipping", slot);
            continue;
        }
        att.slots[fi->irFunc] = slot;
    }
    return att;
}

} // namespace runtime
} // namespace protean
