#include "validate/sandbox.h"

#include "support/logging.h"

namespace protean {
namespace validate {

using isa::MInst;
using isa::MOp;

const char *
trapName(Trap t)
{
    switch (t) {
      case Trap::None: return "none";
      case Trap::WildPc: return "wild-pc";
      case Trap::UnpatchedCall: return "unpatched-call";
      case Trap::WildEvtSlot: return "wild-evt-slot";
      case Trap::Unaligned: return "unaligned";
      case Trap::StepBudget: return "step-budget";
      case Trap::CallDepth: return "call-depth";
    }
    return "?";
}

std::string
SandboxResult::fingerprint() const
{
    // Registers folded into one FNV digest so the fingerprint stays
    // short enough to embed in verdict reasons and test failures.
    uint64_t rh = 0xcbf29ce484222325ULL;
    for (uint64_t v : regs) {
        for (int i = 0; i < 8; ++i) {
            rh ^= (v >> (8 * i)) & 0xff;
            rh *= 0x100000001b3ULL;
        }
    }
    return strformat(
        "trap=%s steps=%llu loads=%llu stores=%llu branches=%llu "
        "writes=%llu/%016llx regs=%016llx",
        trapName(trap), static_cast<unsigned long long>(steps),
        static_cast<unsigned long long>(loads),
        static_cast<unsigned long long>(stores),
        static_cast<unsigned long long>(branches),
        static_cast<unsigned long long>(writeCount),
        static_cast<unsigned long long>(writeDigest),
        static_cast<unsigned long long>(rh));
}

uint64_t
Sandbox::readWord(uint64_t addr) const
{
    auto it = mem_.find(addr);
    if (it != mem_.end())
        return it->second;
    // Fall through to the initial data segment, then zero-fill —
    // the same visible semantics as PagedMemory::loadImage + reads.
    if (addr + 8 <= image_.initialData.size())
        return image_.initialWord(addr);
    return 0;
}

SandboxResult
Sandbox::run(const std::vector<MInst> &code, isa::CodeAddr entry,
             const std::array<uint64_t, 4> &args,
             uint64_t step_budget, const OsrFlip *flip)
{
    SandboxResult res;
    mem_.clear();
    // Taken transfers of the OSR-flipped branch seen so far; once it
    // reaches flip->afterExecutions, the branch is "patched".
    uint64_t flip_taken = 0;

    isa::RegFile &r = res.regs;
    r.fill(0);
    for (size_t i = 0; i < args.size(); ++i)
        r[i] = args[i];

    std::vector<isa::CallFrame> stack;

    auto trap = [&res](Trap t, isa::CodeAddr pc) {
        res.trap = t;
        res.trapPc = pc;
    };
    auto writeWord = [this, &res](uint64_t addr, uint64_t value) {
        mem_[addr] = value;
        // Order-sensitive digest: a dropped, reordered or re-valued
        // store changes it even when the final memory image agrees.
        for (uint64_t v : {addr, value}) {
            for (int i = 0; i < 8; ++i) {
                res.writeDigest ^= (v >> (8 * i)) & 0xff;
                res.writeDigest *= 0x100000001b3ULL;
            }
        }
        ++res.writeCount;
    };
    auto doCall = [&](isa::CodeAddr ret_pc, isa::CodeAddr target,
                      isa::CodeAddr at) -> isa::CodeAddr {
        if (stack.size() >= kMaxCallDepth) {
            trap(Trap::CallDepth, at);
            return at;
        }
        stack.push_back(isa::CallFrame::save(ret_pc, r));
        return target;
    };

    isa::CodeAddr pc = entry;
    bool halted = false;
    while (!halted && res.trap == Trap::None) {
        if (pc >= code.size()) {
            trap(Trap::WildPc, pc);
            break;
        }
        const MInst &inst = code[pc];
        if (inst.op != MOp::Hint) {
            if (res.steps >= step_budget) {
                trap(Trap::StepBudget, pc);
                break;
            }
            ++res.steps;
        }
        isa::CodeAddr next = pc + 1;

        switch (inst.op) {
          case MOp::Const:
            r[inst.rd] = static_cast<uint64_t>(inst.imm);
            break;
          case MOp::Mov:
            r[inst.rd] = r[inst.rs1];
            break;
          case MOp::Add: case MOp::Sub: case MOp::Mul: case MOp::Div:
          case MOp::Mod: case MOp::And: case MOp::Or: case MOp::Xor:
          case MOp::Shl: case MOp::Shr: case MOp::CmpEq: case MOp::CmpNe:
          case MOp::CmpLt: case MOp::CmpLe:
            r[inst.rd] = isa::evalAlu(inst.op, r[inst.rs1], r[inst.rs2]);
            break;
          case MOp::Load: {
            uint64_t addr =
                r[inst.rs1] + static_cast<uint64_t>(inst.imm);
            if (addr & 7) {
                trap(Trap::Unaligned, pc);
                break;
            }
            ++res.loads;
            r[inst.rd] = readWord(addr);
            break;
          }
          case MOp::Store: {
            uint64_t addr =
                r[inst.rs1] + static_cast<uint64_t>(inst.imm);
            if (addr & 7) {
                trap(Trap::Unaligned, pc);
                break;
            }
            ++res.stores;
            writeWord(addr, r[inst.rs2]);
            break;
          }
          case MOp::Hint:
            ++res.hints;
            break;
          case MOp::Jmp:
            ++res.branches;
            next = inst.target;
            if (flip && pc == flip->pc &&
                flip_taken++ >= flip->afterExecutions)
                next = flip->dest;
            break;
          case MOp::Bnz:
            ++res.branches;
            if (r[inst.rs1] != 0) {
                next = inst.target;
                if (flip && pc == flip->pc &&
                    flip_taken++ >= flip->afterExecutions)
                    next = flip->dest;
            }
            break;
          case MOp::CallDirect:
            ++res.branches;
            if (inst.target == isa::kInvalidCodeAddr) {
                trap(Trap::UnpatchedCall, pc);
                break;
            }
            next = doCall(pc + 1, inst.target, pc);
            break;
          case MOp::CallIndirect: {
            ++res.branches;
            if (inst.evtSlot >= image_.evtCount) {
                trap(Trap::WildEvtSlot, pc);
                break;
            }
            uint64_t slot_addr =
                isa::evtSlotAddr(image_.evtBase, inst.evtSlot);
            auto target =
                static_cast<isa::CodeAddr>(readWord(slot_addr));
            next = doCall(pc + 1, target, pc);
            break;
          }
          case MOp::Ret:
            ++res.branches;
            if (stack.empty()) {
                halted = true;
            } else {
                next = stack.back().ret;
                stack.back().restore(r);
                stack.pop_back();
            }
            break;
          case MOp::Halt:
            halted = true;
            break;
          case MOp::Nop:
            break;
        }
        pc = next;
    }
    return res;
}

} // namespace validate
} // namespace protean
