#include "baselines/dynamorio.h"

namespace protean {
namespace baselines {

void
enableBinaryTranslation(sim::Machine &machine, uint32_t core)
{
    // The calibrated per-transfer costs live with the core model
    // (sim/core.cc); only arm the mode here.
    sim::BtConfig cfg;
    cfg.enabled = true;
    machine.core(core).setBtConfig(cfg);
}

} // namespace baselines
} // namespace protean
