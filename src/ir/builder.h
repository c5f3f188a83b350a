/**
 * @file
 * Convenience builder for constructing IR.
 *
 * IRBuilder tracks an insertion point (a basic block) and provides
 * one call per opcode, allocating destination registers on demand.
 * Workload generators and tests construct all programs through it.
 */

#ifndef PROTEAN_IR_BUILDER_H
#define PROTEAN_IR_BUILDER_H

#include "ir/module.h"

namespace protean {
namespace ir {

/** Streaming IR constructor bound to one function at a time. */
class IRBuilder
{
  public:
    explicit IRBuilder(Module &module);

    /** Create a function and make its entry block current. */
    Function &startFunction(const std::string &name, uint32_t num_params);

    /** The function currently being built. */
    Function &func();

    /** Create a new block in the current function. */
    BlockId newBlock();

    /** Move the insertion point. */
    void setBlock(BlockId id);

    Reg constInt(int64_t value);
    Reg globalAddr(GlobalId g);
    Reg mov(Reg src);
    Reg binary(Opcode op, Reg a, Reg b);
    Reg add(Reg a, Reg b) { return binary(Opcode::Add, a, b); }
    Reg sub(Reg a, Reg b) { return binary(Opcode::Sub, a, b); }
    Reg mul(Reg a, Reg b) { return binary(Opcode::Mul, a, b); }
    Reg div(Reg a, Reg b) { return binary(Opcode::Div, a, b); }
    Reg mod(Reg a, Reg b) { return binary(Opcode::Mod, a, b); }
    Reg andOp(Reg a, Reg b) { return binary(Opcode::And, a, b); }
    Reg orOp(Reg a, Reg b) { return binary(Opcode::Or, a, b); }
    Reg xorOp(Reg a, Reg b) { return binary(Opcode::Xor, a, b); }
    Reg shl(Reg a, Reg b) { return binary(Opcode::Shl, a, b); }
    Reg shr(Reg a, Reg b) { return binary(Opcode::Shr, a, b); }
    Reg cmpEq(Reg a, Reg b) { return binary(Opcode::CmpEq, a, b); }
    Reg cmpNe(Reg a, Reg b) { return binary(Opcode::CmpNe, a, b); }
    Reg cmpLt(Reg a, Reg b) { return binary(Opcode::CmpLt, a, b); }
    Reg cmpLe(Reg a, Reg b) { return binary(Opcode::CmpLe, a, b); }

    /** dest = mem64[addr + offset] */
    Reg load(Reg addr, int64_t offset = 0);
    /** mem64[addr + offset] = value */
    void store(Reg addr, Reg value, int64_t offset = 0);

    void br(BlockId target);
    void condBr(Reg cond, BlockId if_true, BlockId if_false);

    /** Call with a result register. */
    Reg call(FuncId callee, const std::vector<Reg> &args = {});
    /** Call discarding any result. */
    void callVoid(FuncId callee, const std::vector<Reg> &args = {});

    void ret();
    void ret(Reg value);
    void nop();

    /** Existing-destination variants (reuse a register). */
    void movInto(Reg dest, Reg src);
    void constInto(Reg dest, int64_t value);
    void binaryInto(Reg dest, Opcode op, Reg a, Reg b);
    void loadInto(Reg dest, Reg addr, int64_t offset = 0);

  private:
    Module &module_;
    Function *fn_ = nullptr;
    BlockId curBlock_ = kInvalidId;

    Instruction &emit(Instruction inst);
};

} // namespace ir
} // namespace protean

#endif // PROTEAN_IR_BUILDER_H
