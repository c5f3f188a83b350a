/**
 * @file
 * Binary-translation baseline (DynamoRIO-style, paper Figure 4).
 *
 * Models the cost structure of a translation-based dynamic compiler
 * executing a program from its code cache while making no code
 * modifications: a one-time translation cost per basic block, a
 * hash-lookup cost on every indirect transfer (returns, indirect
 * calls), and a small residual cost on linked direct transfers.
 * Unlike protean code, all execution flows through the translator,
 * so these costs are paid on the application's critical path — the
 * source of the ~18% average overhead the paper measures.
 */

#ifndef PROTEAN_BASELINES_DYNAMORIO_H
#define PROTEAN_BASELINES_DYNAMORIO_H

#include "sim/machine.h"

namespace protean {
namespace baselines {

/** Run the process bound to this core under binary translation. */
void enableBinaryTranslation(sim::Machine &machine, uint32_t core);

} // namespace baselines
} // namespace protean

#endif // PROTEAN_BASELINES_DYNAMORIO_H
