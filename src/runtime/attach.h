/**
 * @file
 * Runtime attachment and metadata discovery (paper Section III-B1).
 *
 * Operating on an executable prepared by pcc, the runtime begins by
 * attaching to the process: it locates the discovery header in the
 * data region, reads the EVT geometry, extracts and decompresses the
 * embedded IR, and recovers the slot-to-function mapping by matching
 * the EVT's initial targets against the binary's symbol table.
 */

#ifndef PROTEAN_RUNTIME_ATTACH_H
#define PROTEAN_RUNTIME_ATTACH_H

#include <memory>

#include "codegen/lowering.h"
#include "ir/module.h"
#include "sim/process.h"

namespace protean {
namespace runtime {

/**
 * The IR-derived part of attach: the re-hydrated module plus the
 * per-function facts every consumer needs. Immutable, and shared by
 * every runtime attached to a byte-identical embedded blob — at WSC
 * scale every server runs the same binary (DESIGN.md §7).
 */
class BinaryIr
{
  public:
    /** Decompress, deserialize and index an embedded blob. */
    explicit BinaryIr(const std::vector<uint8_t> &blob);

    const ir::Module &module() const { return *module_; }

    /** The function's LoadIds in IR order (NT-mask restriction). */
    const std::vector<ir::LoadId> &loads(ir::FuncId func) const
    {
        return loads_[func];
    }

    /** ir::functionHash of the function: its content address. */
    uint64_t hash(ir::FuncId func) const { return hashes_[func]; }

  private:
    std::unique_ptr<const ir::Module> module_;
    std::vector<std::vector<ir::LoadId>> loads_;
    std::vector<uint64_t> hashes_;
};

/** Everything discovered from a protean binary at attach time. */
struct Attachment
{
    uint64_t evtBase = 0;
    uint32_t evtCount = 0;
    /** The shared IR product (null when the binary embeds none). */
    std::shared_ptr<const BinaryIr> ir;
    /** Virtualized callee -> EVT slot. */
    codegen::VirtualizationMap slots;

    bool hasIr() const { return ir != nullptr; }
};

/**
 * Attach to a process. The IR product is decoded once per distinct
 * blob and shared while any attachment holds it.
 * Fatal when the process is not a protean binary (no magic header)
 * or its header places the IR blob outside the data segment.
 */
Attachment attach(const sim::Process &proc);

} // namespace runtime
} // namespace protean

#endif // PROTEAN_RUNTIME_ATTACH_H
