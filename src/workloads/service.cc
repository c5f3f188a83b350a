#include "workloads/service.h"

#include <bit>

#include "ir/builder.h"
#include "ir/verifier.h"
#include "support/logging.h"

namespace protean {
namespace workloads {

namespace {

/** Fraction of the working set each request walks. The walk cursor
 *  persists across requests, so a given line is re-referenced only
 *  every 1/kWalkFraction requests — the request-local locality of a
 *  real service, which determines how fast a polluter can evict the
 *  service's footprint. */
constexpr double kWalkFraction = 0.5;

using ir::BlockId;
using ir::IRBuilder;
using ir::Opcode;
using ir::Reg;

/** Request-processing function: walks the working set. */
void
buildProcess(IRBuilder &b, const ServiceSpec &spec, ir::GlobalId ws,
             ir::GlobalId sink, ir::GlobalId stream_cursor)
{
    uint64_t mask = spec.wsBytes - 1;
    uint64_t lines = spec.wsBytes / 64;
    double frac = spec.stream ? 1.0 : kWalkFraction;
    uint32_t iters_per_rep = static_cast<uint32_t>(std::max<uint64_t>(
        1, static_cast<uint64_t>(static_cast<double>(lines) * frac) /
            spec.loadsPerIter));
    // The inter-iteration stride jumps past the stride prefetcher's
    // reach and uses an odd line count, so the walk still covers the
    // whole working set (latency-sensitive access pattern). Within
    // an iteration the unrolled loads keep spatial locality.
    uint64_t stride_lines = (2ULL * spec.loadsPerIter + 5) | 1;

    b.startFunction("process", 0);
    Reg base = b.globalAddr(ws);
    Reg maskR = b.constInt(static_cast<int64_t>(mask));
    Reg one = b.constInt(1);
    Reg repsN = b.constInt(spec.repsPerRequest);
    Reg innerN = b.constInt(iters_per_rep);
    Reg stride = b.constInt(
        static_cast<int64_t>(spec.stream
                             ? 64ULL * spec.loadsPerIter
                             : 64ULL * stride_lines));
    Reg curBase = b.globalAddr(stream_cursor);
    Reg sum = b.constInt(0);
    Reg rep = b.constInt(0);

    // The walk cursor persists across requests (see kWalkFraction).
    Reg cur = b.load(curBase);
    Reg segment = b.mov(cur);
    Reg j = b.func().newReg();
    Reg tmp = b.func().newReg();
    Reg x = b.func().newReg();
    b.func().noteReg(j);
    b.func().noteReg(tmp);
    b.func().noteReg(x);

    BlockId outer = b.newBlock();
    BlockId inner = b.newBlock();
    BlockId after = b.newBlock();
    BlockId exit = b.newBlock();
    b.br(outer);

    b.setBlock(outer);
    if (!spec.stream)
        b.movInto(cur, segment); // re-walk this request's segment
    b.constInto(j, 0);
    b.br(inner);

    b.setBlock(inner);
    b.binaryInto(tmp, Opcode::And, cur, maskR);
    b.binaryInto(tmp, Opcode::Add, tmp, base);
    for (uint32_t u = 0; u < spec.loadsPerIter; ++u) {
        b.loadInto(x, tmp, static_cast<int64_t>(u) * 64);
        for (uint32_t a = 0; a < spec.aluPerLoad; ++a) {
            b.binaryInto(sum, a % 2 == 0 ? Opcode::Add : Opcode::Xor,
                         sum, x);
        }
    }
    b.binaryInto(cur, Opcode::Add, cur, stride);
    b.binaryInto(j, Opcode::Add, j, one);
    Reg c1 = b.cmpLt(j, innerN);
    b.condBr(c1, inner, after);

    b.setBlock(after);
    b.binaryInto(rep, Opcode::Add, rep, one);
    Reg c2 = b.cmpLt(rep, repsN);
    b.condBr(c2, outer, exit);

    b.setBlock(exit);
    b.store(curBase, cur);
    Reg kbase = b.globalAddr(sink);
    b.store(kbase, sum);
    b.ret();
}

} // namespace

ir::Module
buildService(const ServiceSpec &spec)
{
    if (!std::has_single_bit(spec.wsBytes))
        fatal("buildService: wsBytes must be a power of two");

    ir::Module module(spec.name);
    uint64_t slack = 64ULL * 64;
    ir::GlobalId ws = module.addGlobal("svc_ws", spec.wsBytes + slack);
    ir::GlobalId req = module.addGlobal(kServiceReqGlobal, 8);
    ir::GlobalId done = module.addGlobal(kServiceDoneGlobal, 8);
    ir::GlobalId sink = module.addGlobal("svc_sink", 8);
    ir::GlobalId cursor = module.addGlobal("svc_cursor", 8);

    IRBuilder b(module);
    buildProcess(b, spec, ws, sink, cursor);
    ir::FuncId process = module.findFunction("process")->id();

    b.startFunction("main", 0);
    Reg reqBase = b.globalAddr(req);
    Reg doneBase = b.globalAddr(done);
    Reg wsBase = b.globalAddr(ws);
    Reg one = b.constInt(1);
    Reg spinN = b.constInt(spec.idleSpinIters);
    Reg spin = b.func().newReg();
    Reg zero = b.constInt(0);
    Reg noise = b.constInt(0);
    Reg r = b.func().newReg();
    Reg d = b.func().newReg();
    b.func().noteReg(spin);
    b.func().noteReg(r);
    b.func().noteReg(d);

    BlockId loop = b.newBlock();
    BlockId idle = b.newBlock();
    BlockId idle_loop = b.newBlock();
    BlockId work = b.newBlock();
    b.br(loop);

    b.setBlock(loop);
    b.loadInto(r, reqBase);
    Reg has = b.cmpNe(r, zero);
    b.condBr(has, work, idle);

    // Idle spin: touches only an L1-resident line, so it is
    // insensitive to shared-cache contention, while its IPC is kept
    // close to request-processing IPC (the div models the polling
    // path's longer-latency work) so the flux probe's idle/busy mix
    // does not bias the IPS-based QoS estimate.
    b.setBlock(idle);
    b.constInto(spin, 0);
    b.br(idle_loop);
    b.setBlock(idle_loop);
    b.loadInto(d, wsBase, 0);
    b.binaryInto(noise, Opcode::Add, noise, d);
    b.binaryInto(noise, Opcode::Div, noise, spinN);
    b.binaryInto(noise, Opcode::Xor, noise, spin);
    b.binaryInto(spin, Opcode::Add, spin, one);
    Reg c = b.cmpLt(spin, spinN);
    b.condBr(c, idle_loop, loop);

    b.setBlock(work);
    Reg rm = b.sub(r, one);
    b.store(reqBase, rm);
    b.callVoid(process);
    b.loadInto(d, doneBase);
    b.binaryInto(d, Opcode::Add, d, one);
    b.store(doneBase, d);
    b.br(loop);

    module.renumberLoads();
    ir::verifyOrDie(module);
    return module;
}

} // namespace workloads
} // namespace protean
