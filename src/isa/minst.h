/**
 * @file
 * PISA: the protean virtual instruction set.
 *
 * PISA is the machine-level target of the compiler backend and the
 * input of the simulated cores. It is held in decoded form (one
 * MInst struct per instruction; code addresses are indices into a
 * flat instruction array).
 *
 * Register convention (enforced by the code generator):
 *  - r0..r3   argument / return-value registers, caller-managed;
 *  - r4..r63  general registers; the hardware call stack saves and
 *             restores r4..r63 across calls (register windows), so
 *             compiled code needs no callee-save sequences.
 *
 * Non-temporal support mirrors x86 prefetchnta: a Hint instruction
 * placed before a load marks the line's fills as non-temporal, and
 * the load itself carries the nonTemporal flag that the memory
 * hierarchy's insertion policy consumes.
 */

#ifndef PROTEAN_ISA_MINST_H
#define PROTEAN_ISA_MINST_H

#include <array>
#include <cstdint>
#include <string>

#include "ir/instruction.h"
#include "support/logging.h"

namespace protean {
namespace isa {

/** Index into a process's flat code array. */
using CodeAddr = uint32_t;

constexpr CodeAddr kInvalidCodeAddr = 0xffffffffu;

/** Total machine registers. */
constexpr uint32_t kNumMachineRegs = 64;
/** First general (window-saved) register. */
constexpr uint32_t kFirstGeneralReg = 4;
/** Registers a call saves and its return restores (r4..r63). */
constexpr uint32_t kSavedRegs = kNumMachineRegs - kFirstGeneralReg;

/** The architectural register file. */
using RegFile = std::array<uint64_t, kNumMachineRegs>;

/** Machine opcodes. */
enum class MOp : uint8_t {
    Const,        ///< rd = imm
    Mov,          ///< rd = rs1
    Add, Sub, Mul, Div, Mod, And, Or, Xor, Shl, Shr,
    CmpEq, CmpNe, CmpLt, CmpLe,
    Load,         ///< rd = mem64[rs1 + imm]
    Store,        ///< mem64[rs1 + imm] = rs2
    Hint,         ///< prefetchnta-style hint for [rs1 + imm]
    Jmp,          ///< pc = target
    Bnz,          ///< if rs1 != 0: pc = target
    CallDirect,   ///< push window; pc = target
    CallIndirect, ///< push window; pc = mem64[evt + 8*evtSlot]
    Ret,          ///< pop window; pc = return address
    Halt,         ///< stop the process
    Nop,
};

constexpr uint8_t kNumMOps = static_cast<uint8_t>(MOp::Nop) + 1;

/** Printable mnemonic. */
const char *mopName(MOp op);

/** One decoded machine instruction. */
struct MInst
{
    MOp op = MOp::Nop;
    uint8_t rd = 0;
    uint8_t rs1 = 0;
    uint8_t rs2 = 0;
    /** Constant / memory offset (bytes). */
    int64_t imm = 0;
    /** Branch or direct-call target. */
    CodeAddr target = kInvalidCodeAddr;
    /** EVT slot for CallIndirect. */
    uint32_t evtSlot = 0;
    /** Static load id (Load/Hint), from the IR numbering. */
    ir::LoadId loadId = ir::kInvalidId;
    /** Non-temporal insertion for this access (Load/Hint). */
    bool nonTemporal = false;

    /** True for ops that end a basic block at machine level. */
    bool isControlFlow() const;
};

/** Disassemble one instruction (addr only affects formatting). */
std::string disassemble(const MInst &inst, CodeAddr addr = 0);

/** The machine op an IR binary ALU opcode lowers to (Add..CmpLe). */
MOp aluMOp(ir::Opcode op);

/**
 * Value semantics of the binary ALU ops Add..CmpLe: rd = a op b on
 * unsigned 64-bit values. Division by zero yields 0 and modulo by
 * zero yields the dividend; shift counts are taken mod 64; compares
 * yield 0 or 1. The simulated core, the validation sandbox and the
 * constant folder all evaluate through this one definition.
 */
inline uint64_t
evalAlu(MOp op, uint64_t a, uint64_t b)
{
    switch (op) {
      case MOp::Add: return a + b;
      case MOp::Sub: return a - b;
      case MOp::Mul: return a * b;
      case MOp::Div: return b == 0 ? 0 : a / b;
      case MOp::Mod: return b == 0 ? a : a % b;
      case MOp::And: return a & b;
      case MOp::Or: return a | b;
      case MOp::Xor: return a ^ b;
      case MOp::Shl: return a << (b & 63);
      case MOp::Shr: return a >> (b & 63);
      case MOp::CmpEq: return a == b;
      case MOp::CmpNe: return a != b;
      case MOp::CmpLt: return a < b;
      case MOp::CmpLe: return a <= b;
      default:
        panic("evalAlu: %s is not an ALU op", mopName(op));
    }
}

/**
 * One register-window frame of the hardware call stack: a call
 * saves r4..r63 and its return address, the matching Ret restores
 * them (r0..r3 carry arguments and results across the transfer).
 */
struct CallFrame
{
    CodeAddr ret;
    std::array<uint64_t, kSavedRegs> saved;

    /** The frame a call pushes when it returns to `ret_pc`. */
    static CallFrame
    save(CodeAddr ret_pc, const RegFile &regs)
    {
        CallFrame f;
        f.ret = ret_pc;
        for (uint32_t i = 0; i < kSavedRegs; ++i)
            f.saved[i] = regs[kFirstGeneralReg + i];
        return f;
    }

    /** Restore the saved window into `regs` (the Ret half). */
    void
    restore(RegFile &regs) const
    {
        for (uint32_t i = 0; i < kSavedRegs; ++i)
            regs[kFirstGeneralReg + i] = saved[i];
    }
};

/** Byte address of EVT slot `slot`: one 8-byte code address each. */
constexpr uint64_t
evtSlotAddr(uint64_t evt_base, uint32_t slot)
{
    return evt_base + 8ULL * slot;
}

} // namespace isa
} // namespace protean

#endif // PROTEAN_ISA_MINST_H
