#include "runtime/evt_manager.h"

#include "isa/image.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/logging.h"

namespace protean {
namespace runtime {

EvtManager::EvtManager(sim::Process &proc, uint64_t evt_base,
                       codegen::VirtualizationMap slots)
    : proc_(proc), evtBase_(evt_base), slots_(std::move(slots))
{
}

uint64_t
EvtManager::slotAddr(ir::FuncId f) const
{
    auto it = slots_.find(f);
    if (it == slots_.end())
        panic("EvtManager: function %u is not virtualized", f);
    return isa::evtSlotAddr(evtBase_, it->second);
}

void
EvtManager::retarget(ir::FuncId f, isa::CodeAddr entry)
{
    // Single atomic word write; the host observes either the old or
    // the new target, never a torn value.
    proc_.writeWord(slotAddr(f), entry);
    ++retargets_;
    obs::metrics().counter("runtime.evt.retargets").inc();
    if (obs::tracer().enabled()) {
        obs::tracer().instant(
            "runtime", "evt_retarget",
            strformat("\"func\":%u,\"target\":%llu", f,
                      static_cast<unsigned long long>(entry)));
    }
}

isa::CodeAddr
EvtManager::target(ir::FuncId f) const
{
    return static_cast<isa::CodeAddr>(proc_.readWord(slotAddr(f)));
}

void
EvtManager::revertAll()
{
    for (auto [func, slot] : slots_) {
        (void)slot;
        retarget(func, proc_.image().function(func).entry);
    }
}

} // namespace runtime
} // namespace protean
