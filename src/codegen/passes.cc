#include "codegen/passes.h"

#include <optional>
#include <unordered_map>

#include "isa/minst.h"

namespace protean {
namespace codegen {

size_t
foldConstants(ir::Function &fn)
{
    size_t changed = 0;
    for (auto &bb : fn.blocks()) {
        // reg -> known constant, and reg -> copy source, within the
        // block. A write to a register invalidates both tables for
        // that register and any copies of it.
        std::unordered_map<ir::Reg, uint64_t> consts;
        std::unordered_map<ir::Reg, ir::Reg> copies;

        auto invalidate = [&](ir::Reg r) {
            consts.erase(r);
            copies.erase(r);
            for (auto it = copies.begin(); it != copies.end();) {
                if (it->second == r)
                    it = copies.erase(it);
                else
                    ++it;
            }
        };
        auto resolve = [&](ir::Reg r) {
            auto it = copies.find(r);
            return it == copies.end() ? r : it->second;
        };

        for (auto &inst : bb.insts) {
            // Copy-propagate sources first.
            for (auto &s : inst.srcs) {
                ir::Reg repl = resolve(s);
                if (repl != s) {
                    s = repl;
                    ++changed;
                }
            }

            if (inst.isBinaryAlu()) {
                auto a = consts.find(inst.srcs[0]);
                auto b = consts.find(inst.srcs[1]);
                if (a != consts.end() && b != consts.end()) {
                    uint64_t v = isa::evalAlu(isa::aluMOp(inst.op),
                                              a->second, b->second);
                    ir::Reg dest = inst.dest;
                    inst = ir::Instruction{};
                    inst.op = ir::Opcode::ConstInt;
                    inst.dest = dest;
                    inst.imm = static_cast<int64_t>(v);
                    ++changed;
                }
            }

            if (inst.hasDest()) {
                invalidate(inst.dest);
                if (inst.op == ir::Opcode::ConstInt) {
                    consts[inst.dest] =
                        static_cast<uint64_t>(inst.imm);
                } else if (inst.op == ir::Opcode::Mov &&
                           inst.srcs[0] != inst.dest) {
                    copies[inst.dest] = inst.srcs[0];
                    auto it = consts.find(inst.srcs[0]);
                    if (it != consts.end())
                        consts[inst.dest] = it->second;
                }
            }
        }
    }
    return changed;
}

size_t
eliminateDeadCode(ir::Function &fn)
{
    size_t nblocks = fn.numBlocks();

    // Per-block liveness over virtual registers (bit per reg).
    size_t nregs = fn.numRegs();
    auto bitWords = (nregs + 63) / 64;
    using LiveSet = std::vector<uint64_t>;
    auto testBit = [&](const LiveSet &s, ir::Reg r) {
        return (s[r / 64] >> (r % 64)) & 1ULL;
    };
    auto setBit = [&](LiveSet &s, ir::Reg r) {
        s[r / 64] |= 1ULL << (r % 64);
    };
    auto clearBit = [&](LiveSet &s, ir::Reg r) {
        s[r / 64] &= ~(1ULL << (r % 64));
    };

    std::vector<LiveSet> live_in(nblocks, LiveSet(bitWords, 0));
    std::vector<LiveSet> live_out(nblocks, LiveSet(bitWords, 0));

    bool changed_sets = true;
    while (changed_sets) {
        changed_sets = false;
        for (size_t b = nblocks; b-- > 0;) {
            const auto &bb = fn.block(static_cast<ir::BlockId>(b));
            LiveSet out(bitWords, 0);
            for (ir::BlockId succ : bb.successors()) {
                for (size_t w = 0; w < bitWords; ++w)
                    out[w] |= live_in[succ][w];
            }
            LiveSet in = out;
            for (size_t k = bb.insts.size(); k-- > 0;) {
                const auto &inst = bb.insts[k];
                if (inst.hasDest())
                    clearBit(in, inst.dest);
                for (ir::Reg s : inst.srcs)
                    setBit(in, s);
            }
            if (out != live_out[b] || in != live_in[b]) {
                live_out[b] = std::move(out);
                live_in[b] = std::move(in);
                changed_sets = true;
            }
        }
    }

    auto hasSideEffect = [](const ir::Instruction &inst) {
        switch (inst.op) {
          case ir::Opcode::Store:
          case ir::Opcode::Call:
          case ir::Opcode::Br:
          case ir::Opcode::CondBr:
          case ir::Opcode::Ret:
            return true;
          default:
            return false;
        }
    };

    size_t removed = 0;
    for (auto &bb : fn.blocks()) {
        LiveSet live = live_out[bb.id];
        std::vector<bool> keep(bb.insts.size(), true);
        for (size_t k = bb.insts.size(); k-- > 0;) {
            const auto &inst = bb.insts[k];
            bool dead = inst.hasDest() && !hasSideEffect(inst) &&
                !testBit(live, inst.dest);
            if (dead) {
                keep[k] = false;
                ++removed;
                continue;
            }
            if (inst.hasDest())
                clearBit(live, inst.dest);
            for (ir::Reg s : inst.srcs)
                setBit(live, s);
        }
        if (removed > 0) {
            std::vector<ir::Instruction> kept;
            kept.reserve(bb.insts.size());
            for (size_t k = 0; k < bb.insts.size(); ++k) {
                if (keep[k])
                    kept.push_back(std::move(bb.insts[k]));
            }
            bb.insts = std::move(kept);
        }
    }
    return removed;
}

size_t
optimizeModule(ir::Module &module)
{
    size_t total = 0;
    for (ir::FuncId f = 0; f < module.numFunctions(); ++f) {
        ir::Function &fn = module.function(f);
        for (;;) {
            size_t n = foldConstants(fn) + eliminateDeadCode(fn);
            total += n;
            if (n == 0)
                break;
        }
    }
    if (total > 0)
        module.renumberLoads();
    return total;
}

} // namespace codegen
} // namespace protean
