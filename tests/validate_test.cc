/**
 * @file
 * Tests for the translation-validation install gate (DESIGN.md §12):
 * the sandboxed PISA interpreter agrees with the real simulator core,
 * tier 1 proves clean variants and refutes every injected miscompile
 * class, tier 2 refutes the executable classes (and is documented
 * blind to the one class only tier 1 can see), verdicts are
 * deterministic, the CompileService rejects-and-recompiles at install
 * time so no bad build ever reaches a shard or a replica, and
 * faulted+validated fleet runs stay byte-identical serial vs
 * parallel.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "codegen/passes.h"
#include "fleet/fleet.h"
#include "ir/builder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pcc/pcc.h"
#include "sim/machine.h"
#include "validate/sandbox.h"
#include "validate/validator.h"

namespace protean {
namespace validate {
namespace {

using ir::IRBuilder;

class ValidateTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obs::metrics().reset();
        obs::tracer().clear();
    }

    void
    TearDown() override
    {
        obs::tracer().clear();
        obs::metrics().reset();
    }
};

/**
 * A module whose kernel exercises every miscompile class: stores
 * (droppable), loads (NT-maskable), and non-commutative arithmetic
 * on registers holding distinct values (swappable). Values derive
 * from the parameter so differential inputs actually distinguish
 * operand orders (a = n+3 and b = 7n are never equal).
 */
struct TestProgram
{
    ir::Module module{"valmod"};
    ir::GlobalId buf;
    ir::FuncId kernel = ir::kInvalidId;
    isa::Image image;
    codegen::VirtualizationMap slots;

    TestProgram() : buf(module.addGlobal("buf", 64))
    {
        IRBuilder b(module);
        ir::Function &kf = b.startFunction("kernel", 1);
        kernel = kf.id();
        ir::Reg n{0};
        ir::Reg base = b.globalAddr(buf);
        ir::Reg v1 = b.add(n, b.constInt(3));
        b.store(base, v1, 0);
        ir::Reg v2 = b.mul(n, b.constInt(7));
        b.store(base, v2, 8);
        ir::Reg a = b.load(base, 0);
        ir::Reg c = b.load(base, 8);
        ir::Reg s = b.sub(a, c);
        ir::Reg q = b.div(a, c);
        ir::Reg acc = b.add(s, q);
        b.store(base, acc, 16);
        ir::Reg t = b.load(base, 16);
        ir::BlockId bt = b.newBlock();
        ir::BlockId bf = b.newBlock();
        ir::BlockId join = b.newBlock();
        ir::Reg cond = b.cmpLt(t, a);
        b.condBr(cond, bt, bf);
        b.setBlock(bt);
        b.store(base, a, 24);
        b.br(join);
        b.setBlock(bf);
        b.store(base, c, 24);
        b.br(join);
        b.setBlock(join);
        ir::Reg r = b.load(base, 24);
        b.ret(b.add(r, acc));

        b.startFunction("main", 0);
        b.callVoid(kernel, {b.constInt(9)});
        b.ret();

        image = pcc::compile(module);
        slots = pcc::chooseVirtualizedCallees(
            module, pcc::EdgePolicy::MultiBlockCallees);
    }

    /** A prefix NT mask over the module's renumbered loads. */
    BitVector
    mask(size_t depth) const
    {
        BitVector m(module.numLoads());
        for (size_t i = 0; i < depth && i < m.size(); ++i)
            m.set(i);
        return m;
    }

    Validator
    validator(const ValidateConfig &cfg = ValidateConfig{}) const
    {
        return Validator(module, image, slots, cfg);
    }

    runtime::CompileJob
    job(uint64_t key, const BitVector &m) const
    {
        runtime::CompileJob j;
        j.contentKey = key;
        j.func = kernel;
        j.costCycles = 1000;
        j.codeBytes = 256;
        j.name = "kernel";
        j.ntMask = m;
        return j;
    }
};

// ---------------------------------------------------------------- //
//                             Sandbox                              //
// ---------------------------------------------------------------- //

TEST_F(ValidateTest, SandboxMatchesSimCoreExecution)
{
    // The tier-2 sandbox must mirror Core::execute exactly; run the
    // same plain image both ways and compare architectural state and
    // HPM-style counts.
    TestProgram p;
    isa::Image plain = pcc::compilePlain(p.module);

    sim::Machine machine;
    machine.load(plain, 0);
    machine.runToCompletion(50'000'000);
    const sim::HpmCounters &hpm = machine.core(0).hpm();

    Sandbox box(plain);
    SandboxResult r = box.run(plain.code, plain.entryPoint(),
                              {0, 0, 0, 0}, 1'000'000);

    EXPECT_EQ(r.trap, Trap::None);
    // The core counts hints as instructions; the sandbox keeps them
    // out of `steps` so step budgets cut original and NT variants at
    // the same logical point.
    EXPECT_EQ(r.steps + r.hints, hpm.instructions);
    EXPECT_EQ(r.loads, hpm.loads);
    EXPECT_EQ(r.stores, hpm.stores);
    EXPECT_EQ(r.branches, hpm.branches);
    for (uint32_t i = 0; i < isa::kNumMachineRegs; ++i)
        EXPECT_EQ(r.regs[i], machine.core(0).reg(i)) << "r" << i;
}

/** Every binary ALU op, as IR opcode and the machine op it lowers to. */
const std::pair<ir::Opcode, isa::MOp> kAluOps[] = {
    {ir::Opcode::Add, isa::MOp::Add},     {ir::Opcode::Sub, isa::MOp::Sub},
    {ir::Opcode::Mul, isa::MOp::Mul},     {ir::Opcode::Div, isa::MOp::Div},
    {ir::Opcode::Mod, isa::MOp::Mod},     {ir::Opcode::And, isa::MOp::And},
    {ir::Opcode::Or, isa::MOp::Or},       {ir::Opcode::Xor, isa::MOp::Xor},
    {ir::Opcode::Shl, isa::MOp::Shl},     {ir::Opcode::Shr, isa::MOp::Shr},
    {ir::Opcode::CmpEq, isa::MOp::CmpEq}, {ir::Opcode::CmpNe, isa::MOp::CmpNe},
    {ir::Opcode::CmpLt, isa::MOp::CmpLt}, {ir::Opcode::CmpLe, isa::MOp::CmpLe},
};

/** Operands at the edges of the ALU rules: zero divisors, shift
 *  counts at and past 64, and both sides of the sign bit. */
constexpr uint64_t kAluEdges[] = {
    0, 1, 3, 63, 64, 65, 1ULL << 63, ~0ULL,
};

/**
 * Evaluates `a op b` three ways — on sim::Core, in the sandbox, and
 * through codegen's constant folder — and expects all three to agree.
 * The machine image is `Const r4, a; Const r5, b; op r6, r4, r5; Halt`.
 */
struct AluConsumers
{
    sim::Machine machine;

    uint64_t
    eval(ir::Opcode irop, isa::MOp op, uint64_t a, uint64_t b)
    {
        auto konst = [](uint8_t rd, uint64_t v) {
            isa::MInst m;
            m.op = isa::MOp::Const;
            m.rd = rd;
            m.imm = static_cast<int64_t>(v);
            return m;
        };
        isa::MInst alu;
        alu.op = op;
        alu.rd = 6;
        alu.rs1 = 4;
        alu.rs2 = 5;
        isa::MInst halt;
        halt.op = isa::MOp::Halt;
        isa::Image image;
        image.name = "alu";
        image.code = {konst(4, a), konst(5, b), alu, halt};
        image.functions.push_back({"main", 0, 0, 4});
        image.entryFunc = 0;
        image.initialData.assign(isa::kHdrBytes, 0);

        machine.load(image, 0);
        machine.runToCompletion();
        uint64_t core = machine.core(0).reg(6);

        Sandbox box(image);
        SandboxResult r = box.run(image.code, 0, {0, 0, 0, 0}, 16);
        EXPECT_EQ(r.trap, Trap::None);
        uint64_t sandbox = r.regs[6];

        ir::Module m("alu");
        IRBuilder ib(m);
        ib.startFunction("f", 0);
        ib.ret(ib.binary(irop, ib.constInt(static_cast<int64_t>(a)),
                         ib.constInt(static_cast<int64_t>(b))));
        codegen::foldConstants(m.function(0));
        const ir::Instruction &folded = m.function(0).block(0).insts[2];
        EXPECT_EQ(folded.op, ir::Opcode::ConstInt);
        auto fold = static_cast<uint64_t>(folded.imm);

        std::string what = strformat(
            "%s(%#llx, %#llx)", isa::mopName(op),
            static_cast<unsigned long long>(a),
            static_cast<unsigned long long>(b));
        EXPECT_EQ(core, sandbox) << what << ": core vs sandbox";
        EXPECT_EQ(core, fold) << what << ": core vs constant folder";
        return core;
    }

    uint64_t
    eval(ir::Opcode irop, uint64_t a, uint64_t b)
    {
        return eval(irop, isa::aluMOp(irop), a, b);
    }
};

TEST_F(ValidateTest, AluEdgeCasesAgreeAcrossCoreSandboxAndFolder)
{
    AluConsumers alu;
    for (auto [irop, op] : kAluOps) {
        EXPECT_EQ(isa::aluMOp(irop), op) << isa::mopName(op);
        for (uint64_t a : kAluEdges) {
            for (uint64_t b : kAluEdges)
                alu.eval(irop, op, a, b);
        }
    }
}

TEST_F(ValidateTest, AluEdgeCasesFollowPisaRules)
{
    using ir::Opcode;
    AluConsumers alu;
    for (uint64_t x : kAluEdges) {
        EXPECT_EQ(alu.eval(Opcode::Div, x, 0), 0u);
        EXPECT_EQ(alu.eval(Opcode::Mod, x, 0), x);
        EXPECT_EQ(alu.eval(Opcode::Shl, x, 64), x);
        EXPECT_EQ(alu.eval(Opcode::Shr, x, 65), x >> 1);
    }
    // Compares are unsigned: 2^63 is not negative.
    EXPECT_EQ(alu.eval(Opcode::CmpLt, 1ULL << 63, 1), 0u);
    EXPECT_EQ(alu.eval(Opcode::CmpLe, ~0ULL, 0), 0u);
    EXPECT_EQ(alu.eval(Opcode::Sub, 0, 1), ~0ULL);
}

// ---------------------------------------------------------------- //
//                    Tier 1: structural checker                    //
// ---------------------------------------------------------------- //

TEST_F(ValidateTest, Tier1ProvesCleanVariantsAtEveryDepth)
{
    TestProgram p;
    Validator v = p.validator();
    ASSERT_GT(p.module.numLoads(), 0u);
    for (size_t depth = 0; depth <= p.module.numLoads(); ++depth) {
        BitVector m = p.mask(depth);
        codegen::LoweredFunction cand = v.lowerVariant(p.kernel, m);
        std::string reason;
        EXPECT_EQ(v.structuralCheck(p.kernel, m, cand, &reason),
                  Tier1::Equivalent)
            << "depth " << depth << ": " << reason;
    }
}

TEST_F(ValidateTest, Tier1RefutesEveryMiscompileClass)
{
    TestProgram p;
    Validator v = p.validator();
    BitVector m = p.mask(2);
    for (uint32_t kind = 0; kind < faults::kNumMiscompileKinds;
         ++kind) {
        for (uint64_t site = 0; site < 5; ++site) {
            faults::MiscompileSpec spec;
            spec.kind = static_cast<faults::MiscompileKind>(kind);
            spec.siteSeed = site;
            codegen::LoweredFunction cand =
                v.lowerVariant(p.kernel, m);
            ASSERT_TRUE(applyMiscompile(cand.code, spec))
                << faults::miscompileKindName(spec.kind);
            std::string reason;
            EXPECT_EQ(v.structuralCheck(p.kernel, m, cand, &reason),
                      Tier1::Refuted)
                << faults::miscompileKindName(spec.kind) << " site "
                << site << " not refuted (" << reason << ")";
        }
    }
}

TEST_F(ValidateTest, Tier1RefutesMaskSubstitution)
{
    // A correct lowering of the WRONG mask must not pass for the
    // requested one: the gate checks what was asked, not merely that
    // the stream is self-consistent.
    TestProgram p;
    Validator v = p.validator();
    codegen::LoweredFunction deeper =
        v.lowerVariant(p.kernel, p.mask(3));
    EXPECT_EQ(v.structuralCheck(p.kernel, p.mask(1), deeper),
              Tier1::Refuted);
    codegen::LoweredFunction clean =
        v.lowerVariant(p.kernel, p.mask(0));
    EXPECT_EQ(v.structuralCheck(p.kernel, p.mask(2), clean),
              Tier1::Refuted);
}

// ---------------------------------------------------------------- //
//                  Tier 2: differential execution                  //
// ---------------------------------------------------------------- //

TEST_F(ValidateTest, Tier2RefutesExecutableMiscompiles)
{
    TestProgram p;
    Validator v = p.validator();
    BitVector m = p.mask(2);
    for (faults::MiscompileKind kind :
         {faults::MiscompileKind::DroppedStore,
          faults::MiscompileKind::SwappedOperand}) {
        faults::MiscompileSpec spec;
        spec.kind = kind;
        spec.siteSeed = 1;
        codegen::LoweredFunction cand = v.lowerVariant(p.kernel, m);
        ASSERT_TRUE(applyMiscompile(cand.code, spec));
        uint64_t steps = 0;
        std::string reason;
        EXPECT_FALSE(v.differentialCheck(p.kernel, m, cand, &steps,
                                         &reason))
            << faults::miscompileKindName(kind);
        EXPECT_GT(steps, 0u);
    }
}

TEST_F(ValidateTest, FlippedNtBitIsInvisibleToTier2ButNotTier1)
{
    // The asymmetry that makes tier-1 refutations final: an NT-bit
    // flip has zero architectural effect, so differential execution
    // passes it — only the structural tier can catch this class.
    TestProgram p;
    Validator v = p.validator();
    BitVector m = p.mask(2);
    faults::MiscompileSpec spec;
    spec.kind = faults::MiscompileKind::FlippedNtBit;
    spec.siteSeed = 0;
    codegen::LoweredFunction cand = v.lowerVariant(p.kernel, m);
    ASSERT_TRUE(applyMiscompile(cand.code, spec));

    uint64_t steps = 0;
    EXPECT_TRUE(v.differentialCheck(p.kernel, m, cand, &steps));

    EXPECT_EQ(v.structuralCheck(p.kernel, m, cand), Tier1::Refuted);
    // And the full verdict (any mode) rejects via tier 1.
    ValidateConfig cfg;
    cfg.mode = Mode::Diff;
    Verdict verdict = p.validator(cfg).validate(
        p.job(1, m), &spec);
    EXPECT_FALSE(verdict.pass);
    EXPECT_EQ(verdict.tier, 1);
}

// ---------------------------------------------------------------- //
//                      Verdicts and policy                         //
// ---------------------------------------------------------------- //

TEST_F(ValidateTest, InconclusiveTier1FollowsModePolicy)
{
    TestProgram p;
    BitVector m = p.mask(1);

    // A zero walk budget forces tier 1 inconclusive. Ir mode has no
    // tier 2: unproven code must not install.
    ValidateConfig ir;
    ir.irCheckMaxInsts = 0;
    ir.mode = Mode::Ir;
    Verdict v1 = p.validator(ir).validate(p.job(1, m));
    EXPECT_FALSE(v1.pass);
    EXPECT_EQ(v1.tier, 1);
    EXPECT_FALSE(v1.escalated);

    // Diff mode escalates the same case and tier 2 proves it.
    ValidateConfig diff = ir;
    diff.mode = Mode::Diff;
    Verdict v2 = p.validator(diff).validate(p.job(1, m));
    EXPECT_TRUE(v2.pass);
    EXPECT_EQ(v2.tier, 2);
    EXPECT_TRUE(v2.escalated);
    EXPECT_GT(v2.cycles, v1.cycles); // tier 2 work is charged

    // Paranoid re-checks even a conclusive tier-1 pass.
    ValidateConfig para;
    para.mode = Mode::Paranoid;
    Verdict v3 = p.validator(para).validate(p.job(1, m));
    EXPECT_TRUE(v3.pass);
    EXPECT_EQ(v3.tier, 2);
    EXPECT_TRUE(v3.escalated);
}

TEST_F(ValidateTest, VerdictsAreDeterministic)
{
    TestProgram p;
    BitVector m = p.mask(2);
    faults::MiscompileSpec spec;
    spec.kind = faults::MiscompileKind::SwappedOperand;
    spec.siteSeed = 7;
    ValidateConfig cfg;
    cfg.mode = Mode::Paranoid;

    Validator a = p.validator(cfg);
    Validator b = p.validator(cfg);
    const faults::MiscompileSpec *injections[] = {nullptr, &spec};
    for (const faults::MiscompileSpec *inject : injections) {
        Verdict va = a.validate(p.job(5, m), inject);
        Verdict vb = b.validate(p.job(5, m), inject);
        EXPECT_EQ(va.pass, vb.pass);
        EXPECT_EQ(va.tier, vb.tier);
        EXPECT_EQ(va.escalated, vb.escalated);
        EXPECT_EQ(va.cycles, vb.cycles);
        EXPECT_EQ(va.reason, vb.reason);
        // Double-run on the same instance too.
        Verdict va2 = a.validate(p.job(5, m), inject);
        EXPECT_EQ(va.pass, va2.pass);
        EXPECT_EQ(va.cycles, va2.cycles);
    }
}

TEST_F(ValidateTest, ModeParsingRoundTrips)
{
    for (Mode m :
         {Mode::Off, Mode::Ir, Mode::Diff, Mode::Paranoid})
        EXPECT_EQ(parseMode(modeName(m)), m);
}

// ---------------------------------------------------------------- //
//                   The service install gate                       //
// ---------------------------------------------------------------- //

TEST_F(ValidateTest, GateRejectsRecompilesThenInstalls)
{
    TestProgram p;
    Validator validator = p.validator();
    fleet::ServiceConfig cfg;
    cfg.numShards = 2;
    cfg.replication = 2;
    fleet::CompileService svc(cfg);
    svc.setValidator(&validator);

    faults::FaultPlan plan{faults::FaultConfig{}};
    faults::MiscompileSpec spec;
    spec.kind = faults::MiscompileKind::DroppedStore;
    spec.siteSeed = 0;
    BitVector m = p.mask(2);
    const uint64_t key = 42;
    plan.addMiscompile(key, 0, spec); // first attempt only
    svc.setFaultPlan(&plan);

    runtime::CompileOutcome out;
    svc.submit(0, p.job(key, m), 100,
               [&](const runtime::CompileOutcome &o) { out = o; });
    svc.advance(10'000'000);

    // The miscompiled first build was rejected before install; the
    // clean recompile installed and answered the waiter.
    const fleet::ServiceStats &st = svc.stats();
    EXPECT_FALSE(out.failed);
    EXPECT_EQ(st.miscompilesInjected, 1u);
    EXPECT_EQ(st.validateFails, 1u);
    EXPECT_EQ(st.validateRecompiles, 1u);
    EXPECT_EQ(st.validatePasses, 1u);
    EXPECT_EQ(st.compiles, 2u);
    EXPECT_GT(st.validateCycles, 0u);
    // The defining guarantee: zero bad installs, anywhere.
    EXPECT_EQ(st.miscompilesInstalled, 0u);
    // Primary and replica hold the (validated) variant; the replica
    // fan-out only ever saw the passing build.
    EXPECT_EQ(st.replicaInstalls, 1u);
    for (uint32_t s : svc.replicaSet(key))
        EXPECT_TRUE(svc.shardHasKey(s, key)) << "shard " << s;
    // The reject delayed the response: validation + recompile are
    // accounted like compile time, not hidden.
    EXPECT_GT(out.readyCycle, 2 * 1000u);
}

TEST_F(ValidateTest, GateGivesUpAfterBoundedAttempts)
{
    TestProgram p;
    Validator validator = p.validator();
    fleet::ServiceConfig cfg;
    cfg.numShards = 1;
    fleet::CompileService svc(cfg);
    svc.setValidator(&validator);

    faults::FaultPlan plan{faults::FaultConfig{}};
    faults::MiscompileSpec spec;
    spec.kind = faults::MiscompileKind::SwappedOperand;
    spec.siteSeed = 3;
    BitVector m = p.mask(1);
    const uint64_t key = 7;
    for (uint32_t attempt = 0; attempt < 8; ++attempt)
        plan.addMiscompile(key, attempt, spec);
    svc.setFaultPlan(&plan);

    runtime::CompileOutcome out;
    bool answered = false;
    svc.submit(0, p.job(key, m), 100,
               [&](const runtime::CompileOutcome &o) {
                   out = o;
                   answered = true;
               });
    svc.advance(50'000'000);

    // Every attempt came out miscompiled; the gate refused them all
    // and failed the waiter explicitly (clients retry/fall back)
    // rather than installing garbage or stalling forever.
    ASSERT_TRUE(answered);
    EXPECT_TRUE(out.failed);
    const fleet::ServiceStats &st = svc.stats();
    EXPECT_EQ(st.validateFails, 4u);
    EXPECT_EQ(st.compiles, 4u);
    EXPECT_EQ(st.validateRecompiles, 3u);
    EXPECT_EQ(st.validatePasses, 0u);
    EXPECT_EQ(st.miscompilesInstalled, 0u);
    EXPECT_FALSE(svc.shardHasKey(0, key));
}

// ---------------------------------------------------------------- //
//                         Fleet-level                              //
// ---------------------------------------------------------------- //

TEST_F(ValidateTest, CleanFleetHasZeroFalseRejects)
{
    fleet::FleetConfig cfg;
    cfg.numServers = 3;
    cfg.meanRequestMs = 2.0;
    ASSERT_EQ(cfg.validate.mode, Mode::Ir); // gate on by default
    fleet::FleetSim sim(cfg);
    sim.run(40.0);

    fleet::FleetStats st = sim.stats();
    ASSERT_GT(st.service.compiles, 0u);
    EXPECT_EQ(st.service.validatePasses, st.service.compiles);
    EXPECT_EQ(st.service.validateFails, 0u);
    EXPECT_EQ(st.service.miscompilesInstalled, 0u);
    // Tier-1 overhead stays a small fraction of compile work.
    EXPECT_LT(static_cast<double>(st.service.validateCycles),
              0.05 * static_cast<double>(st.service.compileCycles));
}

TEST_F(ValidateTest, MiscompilingFleetInstallsNothingBad)
{
    fleet::FleetConfig cfg;
    cfg.numServers = 3;
    cfg.meanRequestMs = 2.0;
    cfg.service.replication = 2;
    // High enough that several of the handful of distinct content
    // keys draw a miscompile; the ladder is on because keys whose
    // every attempt miscompiles degrade to a local compile.
    cfg.faults.miscompileProb = 0.9;
    cfg.retry.enabled = true;
    cfg.retry.attemptTimeoutCycles = 30000;
    cfg.retry.hedgeAfterCycles = 15000;
    cfg.validate.mode = Mode::Diff;
    fleet::FleetSim sim(cfg);
    sim.run(40.0);

    fleet::FleetStats st = sim.stats();
    ASSERT_GT(st.service.miscompilesInjected, 0u);
    EXPECT_EQ(st.service.miscompilesInstalled, 0u);
    EXPECT_GE(st.service.validateFails,
              st.service.miscompilesInjected);
    EXPECT_GT(st.service.validateRecompiles, 0u);
}

TEST_F(ValidateTest, FaultedValidatedRunsByteIdenticalSerialParallel)
{
    auto runOnce = [](const std::string &mpath, uint32_t workers) {
        obs::metrics().reset();
        fleet::FleetConfig cfg;
        cfg.numServers = 4;
        cfg.meanRequestMs = 2.0;
        cfg.faults.miscompileProb = 0.9;
        cfg.faults.shardCrashMeanCycles = 80000.0;
        cfg.faults.requestDropProb = 0.03;
        cfg.retry.enabled = true;
        cfg.service.replication = 2;
        cfg.validate.mode = Mode::Diff;
        cfg.telemetry.enabled = true;
        cfg.parallelWorkers = workers;
        fleet::FleetSim sim(cfg);
        sim.run(40.0);
        sim.flushTelemetry();
        sim.exportObsMetrics();
        obs::metrics().writeJson(mpath);
        return sim.telemetry()->toJson();
    };
    std::string m1 = testing::TempDir() + "validate_m1.json";
    std::string m2 = testing::TempDir() + "validate_m2.json";
    std::string t1 = runOnce(m1, 1);
    std::string t4 = runOnce(m2, 4);

    auto slurp = [](const std::string &p) {
        std::ifstream in(p, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        return ss.str();
    };
    std::string serial = slurp(m1);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, slurp(m2));
    EXPECT_EQ(t1, t4);
    // The rollups actually carry the gate series.
    EXPECT_NE(t1.find("validate_pass"), std::string::npos);
    EXPECT_NE(serial.find("fleet.validate.pass"),
              std::string::npos);
    std::remove(m1.c_str());
    std::remove(m2.c_str());
}

} // namespace
} // namespace validate
} // namespace protean
