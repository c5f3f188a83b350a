#include "isa/minst.h"

#include "support/logging.h"

namespace protean {
namespace isa {

MOp
aluMOp(ir::Opcode op)
{
    switch (op) {
      case ir::Opcode::Add: return MOp::Add;
      case ir::Opcode::Sub: return MOp::Sub;
      case ir::Opcode::Mul: return MOp::Mul;
      case ir::Opcode::Div: return MOp::Div;
      case ir::Opcode::Mod: return MOp::Mod;
      case ir::Opcode::And: return MOp::And;
      case ir::Opcode::Or: return MOp::Or;
      case ir::Opcode::Xor: return MOp::Xor;
      case ir::Opcode::Shl: return MOp::Shl;
      case ir::Opcode::Shr: return MOp::Shr;
      case ir::Opcode::CmpEq: return MOp::CmpEq;
      case ir::Opcode::CmpNe: return MOp::CmpNe;
      case ir::Opcode::CmpLt: return MOp::CmpLt;
      case ir::Opcode::CmpLe: return MOp::CmpLe;
      default:
        panic("aluMOp: %s is not a binary ALU op", opcodeName(op));
    }
}

const char *
mopName(MOp op)
{
    switch (op) {
      case MOp::Const: return "const";
      case MOp::Mov: return "mov";
      case MOp::Add: return "add";
      case MOp::Sub: return "sub";
      case MOp::Mul: return "mul";
      case MOp::Div: return "div";
      case MOp::Mod: return "mod";
      case MOp::And: return "and";
      case MOp::Or: return "or";
      case MOp::Xor: return "xor";
      case MOp::Shl: return "shl";
      case MOp::Shr: return "shr";
      case MOp::CmpEq: return "cmpeq";
      case MOp::CmpNe: return "cmpne";
      case MOp::CmpLt: return "cmplt";
      case MOp::CmpLe: return "cmple";
      case MOp::Load: return "load";
      case MOp::Store: return "store";
      case MOp::Hint: return "hint.nta";
      case MOp::Jmp: return "jmp";
      case MOp::Bnz: return "bnz";
      case MOp::CallDirect: return "call";
      case MOp::CallIndirect: return "calli";
      case MOp::Ret: return "ret";
      case MOp::Halt: return "halt";
      case MOp::Nop: return "nop";
    }
    panic("mopName: bad opcode %d", static_cast<int>(op));
}

bool
MInst::isControlFlow() const
{
    switch (op) {
      case MOp::Jmp:
      case MOp::Bnz:
      case MOp::CallDirect:
      case MOp::CallIndirect:
      case MOp::Ret:
      case MOp::Halt:
        return true;
      default:
        return false;
    }
}

std::string
disassemble(const MInst &inst, CodeAddr addr)
{
    std::string s = strformat("%6u: %-8s", addr, mopName(inst.op));
    switch (inst.op) {
      case MOp::Const:
        s += strformat("r%u, %lld", inst.rd,
                       static_cast<long long>(inst.imm));
        break;
      case MOp::Mov:
        s += strformat("r%u, r%u", inst.rd, inst.rs1);
        break;
      case MOp::Load:
        s += strformat("r%u, [r%u%+lld]%s", inst.rd, inst.rs1,
                       static_cast<long long>(inst.imm),
                       inst.nonTemporal ? " !nt" : "");
        break;
      case MOp::Store:
        s += strformat("[r%u%+lld], r%u", inst.rs1,
                       static_cast<long long>(inst.imm), inst.rs2);
        break;
      case MOp::Hint:
        s += strformat("[r%u%+lld]", inst.rs1,
                       static_cast<long long>(inst.imm));
        break;
      case MOp::Jmp:
        s += strformat("%u", inst.target);
        break;
      case MOp::Bnz:
        s += strformat("r%u, %u", inst.rs1, inst.target);
        break;
      case MOp::CallDirect:
        s += strformat("%u", inst.target);
        break;
      case MOp::CallIndirect:
        s += strformat("evt[%u]", inst.evtSlot);
        break;
      case MOp::Ret:
      case MOp::Halt:
      case MOp::Nop:
        break;
      default:
        s += strformat("r%u, r%u, r%u", inst.rd, inst.rs1, inst.rs2);
        break;
    }
    return s;
}

} // namespace isa
} // namespace protean
