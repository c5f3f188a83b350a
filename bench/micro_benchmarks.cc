/**
 * @file
 * Microbenchmarks (google-benchmark) for the infrastructure hot
 * paths: cache access, memory-system streaming, simulated-core
 * stepping, IR serialization and compression, function lowering, and
 * EVT retargeting.
 */

#include <benchmark/benchmark.h>

#include "ir/serializer.h"
#include "pcc/pcc.h"
#include "runtime/attach.h"
#include "runtime/compiler.h"
#include "runtime/evt_manager.h"
#include "sim/machine.h"
#include "sim/memsys.h"
#include "support/compression.h"
#include "workloads/registry.h"

namespace {

using namespace protean;

workloads::BatchSpec
benchSpec()
{
    workloads::BatchSpec spec = workloads::batchSpec("milc");
    spec.targetStaticLoads = 0;
    return spec;
}

void
BM_CacheAccess(benchmark::State &state)
{
    sim::MachineConfig cfg;
    sim::Cache cache("bench", cfg.l3);
    uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.accessOrFill(addr, false));
        addr += 64;
    }
}
BENCHMARK(BM_CacheAccess);

/** Sequential lines over 8x the L3 through the whole hierarchy: the
 *  L1 always misses and the armed stride prefetcher fills ahead, so
 *  this times the fused miss/install path and the prefetch path.
 *  Arg 1 = NT. */
void
BM_MemsysStream(benchmark::State &state)
{
    sim::MachineConfig cfg;
    sim::MemorySystem ms(cfg);
    sim::HpmCounters hpm;
    const bool nt = state.range(0) != 0;
    const uint64_t line = cfg.l1.lineBytes;
    const uint64_t span = 8ULL * cfg.l3.sizeBytes;
    uint64_t addr = 0;
    uint64_t now = 0;
    for (auto _ : state) {
        now += ms.access(0, addr, nt, now, hpm).latency;
        addr = (addr + line) % span;
    }
    state.counters["prefetches"] =
        static_cast<double>(ms.prefetches());
}
BENCHMARK(BM_MemsysStream)->Arg(0)->Arg(1);

void
BM_SimulatedInstructions(benchmark::State &state)
{
    ir::Module m = workloads::buildBatch(benchSpec());
    isa::Image image = pcc::compilePlain(m);
    sim::Machine machine;
    machine.load(image, 0);
    uint64_t before = machine.core(0).hpm().instructions;
    for (auto _ : state)
        machine.runFor(10'000);
    state.SetItemsProcessed(static_cast<int64_t>(
        machine.core(0).hpm().instructions - before));
}
BENCHMARK(BM_SimulatedInstructions);

void
BM_IrSerialize(benchmark::State &state)
{
    ir::Module m = workloads::buildBatch(benchSpec());
    m.renumberLoads();
    for (auto _ : state) {
        auto bytes = ir::serialize(m);
        benchmark::DoNotOptimize(bytes.data());
    }
}
BENCHMARK(BM_IrSerialize);

void
BM_IrCompressedRoundtrip(benchmark::State &state)
{
    ir::Module m = workloads::buildBatch(benchSpec());
    m.renumberLoads();
    auto packed = ir::serializeCompressed(m);
    state.counters["blob_bytes"] =
        static_cast<double>(packed.size());
    for (auto _ : state) {
        auto back = ir::deserializeCompressed(packed);
        benchmark::DoNotOptimize(back.get());
    }
}
BENCHMARK(BM_IrCompressedRoundtrip);

void
BM_LowerHotFunction(benchmark::State &state)
{
    ir::Module m = workloads::buildBatch(benchSpec());
    isa::Image image = pcc::compile(m);
    const ir::Function &hot = *m.findFunction("hot_0");
    BitVector mask(m.numLoads(), true);
    codegen::LowerOptions opts;
    opts.layout = &image.layout;
    opts.ntMask = &mask;
    for (auto _ : state) {
        auto lowered = codegen::lowerFunction(m, hot, opts);
        benchmark::DoNotOptimize(lowered.code.data());
    }
}
BENCHMARK(BM_LowerHotFunction);

void
BM_EvtRetarget(benchmark::State &state)
{
    ir::Module m = workloads::buildBatch(benchSpec());
    isa::Image image = pcc::compile(m);
    sim::Machine machine;
    sim::Process &proc = machine.load(image, 0);
    runtime::Attachment att = runtime::attach(proc);
    runtime::EvtManager evt(proc, att.evtBase, att.slots);
    ir::FuncId hot = m.findFunction("hot_0")->id();
    isa::CodeAddr entry = image.function(hot).entry;
    for (auto _ : state)
        evt.retarget(hot, entry);
}
BENCHMARK(BM_EvtRetarget);

void
BM_Compress(benchmark::State &state)
{
    ir::Module m = workloads::buildBatch(benchSpec());
    m.renumberLoads();
    auto raw = ir::serialize(m);
    for (auto _ : state) {
        auto packed = compress(raw);
        benchmark::DoNotOptimize(packed.data());
    }
    state.SetBytesProcessed(static_cast<int64_t>(
        state.iterations() * raw.size()));
}
BENCHMARK(BM_Compress);

} // namespace
