#include "codegen/lowering.h"

#include "ir/dominators.h"
#include "support/logging.h"

namespace protean {
namespace codegen {

using isa::MInst;
using isa::MOp;

namespace {

class FunctionLowering
{
  public:
    FunctionLowering(const ir::Module &module, const ir::Function &fn,
                     const LowerOptions &opts)
        : module_(module), fn_(fn), opts_(opts)
    {
        if (!opts.layout)
            panic("lowerFunction: LowerOptions.layout is required");
    }

    LoweredFunction
    run()
    {
        if (fn_.numRegs() > isa::kSavedRegs) {
            panic("lowerFunction: %s uses %u virtual registers; "
                  "machine limit is %u", fn_.name().c_str(),
                  fn_.numRegs(), isa::kSavedRegs);
        }

        emitPrologue();
        blockStart_.assign(fn_.numBlocks(), isa::kInvalidCodeAddr);
        for (const auto &bb : fn_.blocks()) {
            blockStart_[bb.id] =
                static_cast<isa::CodeAddr>(out_.code.size());
            lowerBlock(bb);
        }
        patchBranches();
        markOsrSites();
        out_.blockStarts.assign(blockStart_.begin(),
                                blockStart_.end());
        return std::move(out_);
    }

  private:
    const ir::Module &module_;
    const ir::Function &fn_;
    const LowerOptions &opts_;
    LoweredFunction out_;
    std::vector<isa::CodeAddr> blockStart_;
    /** Branch awaiting block placement; `src` is the block the
     *  branch was emitted from (for back-edge classification). */
    struct BranchFixup
    {
        uint32_t offset;
        ir::BlockId target;
        ir::BlockId src;
    };
    std::vector<BranchFixup> branchFixups_;

    MInst &
    emit(MInst inst)
    {
        out_.code.push_back(inst);
        return out_.code.back();
    }

    void
    emitPrologue()
    {
        if (fn_.numParams() > 4)
            panic("lowerFunction: %s has %u params; max is 4",
                  fn_.name().c_str(), fn_.numParams());
        // Move incoming arguments from r0..r3 into the general regs
        // assigned to the parameter virtual registers.
        for (uint32_t i = 0; i < fn_.numParams(); ++i) {
            MInst m;
            m.op = MOp::Mov;
            m.rd = machineReg(i);
            m.rs1 = static_cast<uint8_t>(i);
            emit(m);
        }
    }

    bool
    masked(ir::LoadId id) const
    {
        return opts_.ntMask && id != ir::kInvalidId &&
            id < opts_.ntMask->size() && opts_.ntMask->test(id);
    }

    void
    lowerBlock(const ir::BasicBlock &bb)
    {
        for (size_t k = 0; k < bb.insts.size(); ++k) {
            const ir::Instruction &inst = bb.insts[k];
            bool last_in_layout = (bb.id + 1 == fn_.numBlocks());
            lowerInst(inst, bb.id, last_in_layout &&
                      (k + 1 == bb.insts.size()));
        }
    }

    void
    lowerInst(const ir::Instruction &inst, ir::BlockId bb, bool is_end)
    {
        switch (inst.op) {
          case ir::Opcode::ConstInt: {
            MInst m;
            m.op = MOp::Const;
            m.rd = machineReg(inst.dest);
            m.imm = inst.imm;
            emit(m);
            break;
          }
          case ir::Opcode::GlobalAddr: {
            MInst m;
            m.op = MOp::Const;
            m.rd = machineReg(inst.dest);
            m.imm = static_cast<int64_t>(
                opts_.layout->base(
                    static_cast<ir::GlobalId>(inst.imm)));
            emit(m);
            break;
          }
          case ir::Opcode::Mov: {
            MInst m;
            m.op = MOp::Mov;
            m.rd = machineReg(inst.dest);
            m.rs1 = machineReg(inst.srcs[0]);
            emit(m);
            break;
          }
          case ir::Opcode::Load: {
            bool nt = masked(inst.loadId);
            if (nt) {
                MInst h;
                h.op = MOp::Hint;
                h.rs1 = machineReg(inst.srcs[0]);
                h.imm = inst.imm;
                h.loadId = inst.loadId;
                h.nonTemporal = true;
                emit(h);
            }
            MInst m;
            m.op = MOp::Load;
            m.rd = machineReg(inst.dest);
            m.rs1 = machineReg(inst.srcs[0]);
            m.imm = inst.imm;
            m.loadId = inst.loadId;
            m.nonTemporal = nt;
            emit(m);
            break;
          }
          case ir::Opcode::Store: {
            MInst m;
            m.op = MOp::Store;
            m.rs1 = machineReg(inst.srcs[0]);
            m.rs2 = machineReg(inst.srcs[1]);
            m.imm = inst.imm;
            emit(m);
            break;
          }
          case ir::Opcode::Br:
            // Fall through when the target is the next block in
            // layout order; otherwise emit a jump.
            if (inst.targets[0] != bb + 1) {
                MInst m;
                m.op = MOp::Jmp;
                branchFixups_.push_back(
                    {static_cast<uint32_t>(out_.code.size()),
                     inst.targets[0], bb});
                emit(m);
            }
            break;
          case ir::Opcode::CondBr: {
            MInst m;
            m.op = MOp::Bnz;
            m.rs1 = machineReg(inst.srcs[0]);
            branchFixups_.push_back(
                {static_cast<uint32_t>(out_.code.size()),
                 inst.targets[0], bb});
            emit(m);
            if (inst.targets[1] != bb + 1) {
                MInst j;
                j.op = MOp::Jmp;
                branchFixups_.push_back(
                    {static_cast<uint32_t>(out_.code.size()),
                     inst.targets[1], bb});
                emit(j);
            }
            break;
          }
          case ir::Opcode::Call:
            lowerCall(inst);
            break;
          case ir::Opcode::Ret: {
            if (!inst.srcs.empty()) {
                MInst m;
                m.op = MOp::Mov;
                m.rd = 0;
                m.rs1 = machineReg(inst.srcs[0]);
                emit(m);
            }
            MInst r;
            r.op = MOp::Ret;
            emit(r);
            (void)is_end;
            break;
          }
          case ir::Opcode::Nop: {
            MInst m;
            m.op = MOp::Nop;
            emit(m);
            break;
          }
          default:
            if (inst.isBinaryAlu()) {
                MInst m;
                m.op = isa::aluMOp(inst.op);
                m.rd = machineReg(inst.dest);
                m.rs1 = machineReg(inst.srcs[0]);
                m.rs2 = machineReg(inst.srcs[1]);
                emit(m);
            } else {
                panic("lowerInst: unhandled opcode %s",
                      opcodeName(inst.op));
            }
            break;
        }
    }

    void
    lowerCall(const ir::Instruction &inst)
    {
        if (inst.srcs.size() > 4)
            panic("lowerCall: %zu args; max is 4", inst.srcs.size());
        for (size_t i = 0; i < inst.srcs.size(); ++i) {
            MInst m;
            m.op = MOp::Mov;
            m.rd = static_cast<uint8_t>(i);
            m.rs1 = machineReg(inst.srcs[i]);
            emit(m);
        }
        bool indirect = opts_.virtualized &&
            opts_.virtualized->count(inst.callee) > 0;
        if (indirect) {
            MInst m;
            m.op = MOp::CallIndirect;
            m.evtSlot = opts_.virtualized->at(inst.callee);
            emit(m);
        } else {
            MInst m;
            m.op = MOp::CallDirect;
            out_.directCallFixups.emplace_back(
                static_cast<uint32_t>(out_.code.size()), inst.callee);
            emit(m);
        }
        if (inst.dest != ir::kInvalidReg) {
            MInst m;
            m.op = MOp::Mov;
            m.rd = machineReg(inst.dest);
            m.rs1 = 0;
            emit(m);
        }
    }

    void
    patchBranches()
    {
        for (const BranchFixup &f : branchFixups_) {
            if (f.target >= blockStart_.size() ||
                blockStart_[f.target] == isa::kInvalidCodeAddr) {
                panic("lowerFunction: unplaced block %u", f.target);
            }
            out_.code[f.offset].target = blockStart_[f.target];
        }
    }

    /**
     * Classify every recorded branch whose target dominates its
     * source block as a loop back-edge: each such branch is an OSR
     * point. A fallthrough Br never qualifies (a branch to bb+1 is
     * forward), so every back-edge has an emitted, patchable Jmp or
     * Bnz — the emitted code is not changed here.
     */
    void
    markOsrSites()
    {
        if (branchFixups_.empty())
            return;
        ir::DominatorTree dom(fn_);
        for (const BranchFixup &f : branchFixups_) {
            if (dom.dominates(f.target, f.src))
                out_.osrSites.push_back({f.offset, f.target});
        }
    }
};

} // namespace

uint8_t
machineReg(ir::Reg v)
{
    uint32_t r = isa::kFirstGeneralReg + v;
    if (r >= isa::kNumMachineRegs)
        panic("machineReg: virtual register %u exceeds machine limit", v);
    return static_cast<uint8_t>(r);
}

LoweredFunction
lowerFunction(const ir::Module &module, const ir::Function &fn,
              const LowerOptions &opts)
{
    FunctionLowering lowering(module, fn, opts);
    return lowering.run();
}

void
relocate(LoweredFunction &fn, isa::CodeAddr base)
{
    for (auto &inst : fn.code) {
        if (inst.op == MOp::Jmp || inst.op == MOp::Bnz)
            inst.target += base;
    }
}

} // namespace codegen
} // namespace protean
