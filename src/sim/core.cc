#include "sim/core.h"

#include "sim/memsys.h"
#include "support/logging.h"

namespace protean {
namespace sim {

using isa::MInst;
using isa::MOp;

namespace {

// Per-transfer costs of the binary-translation execution mode.
// Calibrated so the SPEC-wide mean overhead lands near the ~18% the
// paper measures for DynamoRIO: the per-transfer costs fold in trace
// exits, link stubs and the code cache's instruction-fetch
// footprint, which this simulator does not model directly.

/** One-time translation cost per basic-block head. */
constexpr uint32_t kBtTranslateCycles = 600;
/** Hash-lookup cost per indirect transfer (ret, calli). */
constexpr uint32_t kBtIndirectCycles = 200;
/** Residual cost per taken direct transfer (linked blocks). */
constexpr uint32_t kBtTakenExtraCycles = 35;

} // namespace

Core::Core(uint32_t id, const MachineConfig &cfg, MemorySystem &memsys)
    : id_(id), cfg_(cfg), memsys_(memsys)
{
}

void
Core::bind(Process *proc)
{
    proc_ = proc;
    regs_.fill(0);
    stack_.clear();
    btBlocks_.clear();
    sbCache_.clear();
    flipWatches_.clear();
    sbVersion_ = proc ? proc->codeVersion() : 0;
    if (proc_) {
        proc_->setCoreId(id_);
        pc_ = proc_->image().entryPoint();
        if (bt_.enabled) {
            // Entry block translation.
            btBlocks_.insert(pc_);
            cycle_ += kBtTranslateCycles;
            hpm_.cycles += kBtTranslateCycles;
        }
    }
}

bool
Core::runnable() const
{
    if (stolenBacklog_ > 0)
        return true;
    return proc_ && proc_->state() == ProcState::Running;
}

void
Core::syncIdleClock(uint64_t now)
{
    if (cycle_ < now)
        cycle_ = now;
}

void
Core::setNapIntensity(double f)
{
    if (f < 0.0 || f > 1.0)
        panic("nap intensity %g out of [0, 1]", f);
    napIntensity_ = f;
    refreshThrottleFlag();
}

void
Core::stealCycles(uint64_t cycles)
{
    stolenBacklog_ += cycles;
    refreshThrottleFlag();
}

void
Core::setBtConfig(const BtConfig &bt)
{
    bt_ = bt;
    btBlocks_.clear();
    if (bt_.enabled && proc_) {
        btBlocks_.insert(pc_);
        cycle_ += kBtTranslateCycles;
        hpm_.cycles += kBtTranslateCycles;
    }
}

bool
Core::consumeThrottles()
{
    // Runtime work charged to this core runs ahead of the host.
    if (stolenBacklog_ > 0) {
        cycle_ += stolenBacklog_;
        hpm_.cycles += stolenBacklog_;
        hpm_.stolenCycles += stolenBacklog_;
        stolenBacklog_ = 0;
        refreshThrottleFlag();
        return true;
    }
    // Nap: sleep for the first f of every period.
    if (napIntensity_ > 0.0) {
        uint64_t period = cfg_.napPeriodCycles;
        uint64_t pos = cycle_ % period;
        auto sleep_len = static_cast<uint64_t>(
            napIntensity_ * static_cast<double>(period));
        if (pos < sleep_len) {
            uint64_t delta = sleep_len - pos;
            cycle_ += delta;
            hpm_.cycles += delta;
            hpm_.nappedCycles += delta;
            return true;
        }
    }
    return false;
}

void
Core::step()
{
    if (consumeThrottles())
        return;
    if (!proc_ || proc_->state() != ProcState::Running)
        panic("core %u stepped without runnable work", id_);
    const MInst &inst = proc_->inst(pc_);
    execute(inst);
}

const Core::Superblock &
Core::fetchSuperblock()
{
    uint64_t v = proc_->codeVersion();
    if (v != sbVersion_) {
        // Code moved under us (variant append or call-site patch):
        // retire every decoded block before dispatching, so a flip
        // can never execute a stale instruction.
        sbStats_.invalidations += sbCache_.size();
        sbCache_.clear();
        sbVersion_ = v;
    }
    auto it = sbCache_.find(pc_);
    if (it != sbCache_.end()) {
        ++sbStats_.hits;
        return it->second;
    }
    ++sbStats_.misses;
    Superblock sb;
    isa::CodeAddr end = proc_->codeSize();
    for (isa::CodeAddr a = pc_; a < end; ++a) {
        const MInst &in = proc_->inst(a);
        sb.insts.push_back(in);
        if (in.isControlFlow() || sb.insts.size() >= kMaxSuperblockLen)
            break;
    }
    if (sb.insts.empty())
        proc_->inst(pc_); // canonical wild-pc panic
    sb.memFence = static_cast<uint32_t>(sb.insts.size());
    for (uint32_t i = 0; i < sb.insts.size(); ++i) {
        if (touchesMemsys(sb.insts[i].op)) {
            sb.memFence = i;
            break;
        }
    }
    return sbCache_.emplace(pc_, std::move(sb)).first->second;
}

void
Core::run(uint64_t horizon)
{
    // The hot loop of the batched engine: no scheduler scan, no
    // event-heap peek — just decoded superblocks until the horizon.
    // A block's instructions execute from a dense local array, so the
    // per-instruction work is one bounds-free dispatch. A consumed
    // throttle may overshoot the horizon, exactly as one step() can.
    while (cycle_ < horizon) {
        if (throttleActive_) {
            // Nap windows are re-checked before every instruction in
            // the reference engine, so an armed throttle keeps the
            // core on the per-instruction path.
            if (consumeThrottles())
                continue;
            if (!proc_ || proc_->state() != ProcState::Running)
                return;
            execute(proc_->inst(pc_));
            continue;
        }
        if (!proc_ || proc_->state() != ProcState::Running)
            return;
        const Superblock &sb = fetchSuperblock();
        const MInst *insts = sb.insts.data();
        const size_t n = sb.insts.size();
        for (size_t i = 0; i < n && cycle_ < horizon; ++i)
            execute(insts[i]);
    }
}

bool
Core::runFenced(uint64_t horizon)
{
    // Superblocks make the fence check cheap: each block records the
    // index of its first memsys-touching instruction, so proving a
    // whole block interference-free is one comparison.
    while (cycle_ < horizon) {
        if (throttleActive_) {
            if (consumeThrottles())
                continue;
            if (!proc_ || proc_->state() != ProcState::Running)
                return false;
            const MInst &in = proc_->inst(pc_);
            if (touchesMemsys(in.op))
                return true;
            execute(in);
            continue;
        }
        if (!proc_ || proc_->state() != ProcState::Running)
            return false;
        const Superblock &sb = fetchSuperblock();
        const MInst *insts = sb.insts.data();
        const size_t fence = sb.memFence;
        for (size_t i = 0; i < fence && cycle_ < horizon; ++i)
            execute(insts[i]);
        if (cycle_ >= horizon)
            return false;
        if (fence < sb.insts.size())
            return true; // parked at a shared-memsys access
    }
    return false;
}

uint64_t
Core::memAccess(uint64_t vaddr, bool nonTemporal)
{
    AccessResult res = memsys_.access(id_, proc_->physAddr(vaddr),
                                      nonTemporal, cycle_, hpm_);
    return res.latency;
}

void
Core::doCall(isa::CodeAddr target)
{
    Frame frame;
    frame.ret = pc_ + 1;
    for (uint32_t i = 0; i < kSavedRegs; ++i)
        frame.saved[i] = regs_[isa::kFirstGeneralReg + i];
    stack_.push_back(frame);
    transferTo(target, false);
}

void
Core::doRet()
{
    if (stack_.empty()) {
        halt();
        return;
    }
    Frame frame = stack_.back();
    stack_.pop_back();
    for (uint32_t i = 0; i < kSavedRegs; ++i)
        regs_[isa::kFirstGeneralReg + i] = frame.saved[i];
    transferTo(frame.ret, true);
}

void
Core::transferTo(isa::CodeAddr target, bool indirect)
{
    pc_ = target;
    if (!flipWatches_.empty())
        fireFlipWatches(target);
    if (bt_.enabled) {
        uint64_t extra = indirect ? kBtIndirectCycles
            : kBtTakenExtraCycles;
        if (btBlocks_.insert(target).second)
            extra += kBtTranslateCycles;
        cycle_ += extra;
        hpm_.cycles += extra;
    }
}

void
Core::fireFlipWatches(isa::CodeAddr target)
{
    // Kept out of the transferTo fast path: watches exist only while
    // a dispatched flip has not yet taken effect. Watches fire in
    // arming order, deterministically, before the transfer's cycle
    // cost is charged — and cost nothing themselves.
    size_t kept = 0;
    for (size_t i = 0; i < flipWatches_.size(); ++i) {
        const FlipWatch &w = flipWatches_[i];
        if (target >= w.lo && target < w.hi) {
            if (flipHook_)
                flipHook_(w.id, target != w.entry, cycle_);
        } else {
            flipWatches_[kept++] = flipWatches_[i];
        }
    }
    flipWatches_.resize(kept);
}

void
Core::retargetFlipWatches(uint32_t func, isa::CodeAddr lo,
                          isa::CodeAddr hi, isa::CodeAddr entry)
{
    for (FlipWatch &w : flipWatches_) {
        if (w.func == func) {
            w.lo = lo;
            w.hi = hi;
            w.entry = entry;
        }
    }
}

void
Core::halt()
{
    proc_->setState(ProcState::Halted);
}

void
Core::execute(const MInst &inst)
{
    uint64_t cost = 1;
    ++hpm_.instructions;
    isa::CodeAddr next = pc_ + 1;
    bool transferred = false;

    auto &r = regs_;
    switch (inst.op) {
      case MOp::Const:
        r[inst.rd] = static_cast<uint64_t>(inst.imm);
        break;
      case MOp::Mov:
        r[inst.rd] = r[inst.rs1];
        break;
      case MOp::Add: r[inst.rd] = r[inst.rs1] + r[inst.rs2]; break;
      case MOp::Sub: r[inst.rd] = r[inst.rs1] - r[inst.rs2]; break;
      case MOp::Mul:
        r[inst.rd] = r[inst.rs1] * r[inst.rs2];
        cost = 3;
        break;
      case MOp::Div:
        r[inst.rd] = r[inst.rs2] == 0 ? 0 : r[inst.rs1] / r[inst.rs2];
        cost = 12;
        break;
      case MOp::Mod:
        r[inst.rd] = r[inst.rs2] == 0 ? r[inst.rs1]
            : r[inst.rs1] % r[inst.rs2];
        cost = 12;
        break;
      case MOp::And: r[inst.rd] = r[inst.rs1] & r[inst.rs2]; break;
      case MOp::Or: r[inst.rd] = r[inst.rs1] | r[inst.rs2]; break;
      case MOp::Xor: r[inst.rd] = r[inst.rs1] ^ r[inst.rs2]; break;
      case MOp::Shl:
        r[inst.rd] = r[inst.rs1] << (r[inst.rs2] & 63);
        break;
      case MOp::Shr:
        r[inst.rd] = r[inst.rs1] >> (r[inst.rs2] & 63);
        break;
      case MOp::CmpEq: r[inst.rd] = r[inst.rs1] == r[inst.rs2]; break;
      case MOp::CmpNe: r[inst.rd] = r[inst.rs1] != r[inst.rs2]; break;
      case MOp::CmpLt: r[inst.rd] = r[inst.rs1] < r[inst.rs2]; break;
      case MOp::CmpLe: r[inst.rd] = r[inst.rs1] <= r[inst.rs2]; break;
      case MOp::Load: {
        uint64_t vaddr = r[inst.rs1] + static_cast<uint64_t>(inst.imm);
        ++hpm_.loads;
        cost += memAccess(vaddr, inst.nonTemporal);
        r[inst.rd] = proc_->readWord(vaddr);
        break;
      }
      case MOp::Store: {
        uint64_t vaddr = r[inst.rs1] + static_cast<uint64_t>(inst.imm);
        ++hpm_.stores;
        // Stores retire through a write buffer: cache state is
        // updated but the core does not stall on the fill.
        memsys_.access(id_, proc_->physAddr(vaddr), inst.nonTemporal,
                       cycle_, hpm_);
        proc_->writeWord(vaddr, r[inst.rs2]);
        break;
      }
      case MOp::Hint:
        // The executed prefetchnta: costs its slot; the line's
        // insertion policy is carried by the following NT load.
        ++hpm_.hints;
        break;
      case MOp::Jmp:
        ++hpm_.branches;
        transferTo(inst.target, false);
        transferred = true;
        break;
      case MOp::Bnz:
        ++hpm_.branches;
        if (r[inst.rs1] != 0) {
            transferTo(inst.target, false);
            transferred = true;
        }
        break;
      case MOp::CallDirect:
        ++hpm_.branches;
        if (inst.target == isa::kInvalidCodeAddr)
            panic("core %u: unpatched direct call at %u", id_, pc_);
        doCall(inst.target);
        transferred = true;
        break;
      case MOp::CallIndirect: {
        ++hpm_.branches;
        uint64_t slot_addr = proc_->image().evtBase +
            8ULL * inst.evtSlot;
        // The EVT read is a real (cached) memory access; this is the
        // entire cost of edge virtualization.
        cost += memAccess(slot_addr, false);
        auto target =
            static_cast<isa::CodeAddr>(proc_->readWord(slot_addr));
        doCall(target);
        transferred = true;
        break;
      }
      case MOp::Ret:
        ++hpm_.branches;
        doRet();
        transferred = true;
        break;
      case MOp::Halt:
        halt();
        transferred = true;
        break;
      case MOp::Nop:
        break;
    }

    if (!transferred)
        pc_ = next;
    cycle_ += cost;
    hpm_.cycles += cost;
}

} // namespace sim
} // namespace protean
