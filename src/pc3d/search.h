/**
 * @file
 * PC3D's code-variant search (paper Algorithms 1 and 2).
 *
 * VariantSearch is a window-driven state machine. Each step the
 * driver (the PC3D engine) reads current() — which variant mask to
 * have dispatched and which nap intensity to apply — runs one
 * evaluation window on the live system, and feeds the measurement
 * back through onMeasurement().
 *
 * Algorithm 1 (greedy over loads, most-impactful first) evaluates
 * variants 0 and 1 to establish program-wide nap-intensity bounds,
 * then walks the loads of the reduced search space, revoking one
 * hint at a time and keeping the revocation only when it improves
 * host performance at QoS-satisfying nap levels. Accepting a variant
 * lowers the nap upper bound, shrinking every later evaluation.
 *
 * Algorithm 2 (VariantEval) finds the minimum nap intensity at which
 * co-runner QoS is satisfied by binary search, exploiting the
 * monotonicity of performance in nap intensity. As an optimization
 * the lower bound is probed first, so an uncontended system settles
 * in a single window.
 *
 * One deliberate deviation from the paper's pseudocode: after the
 * greedy walk, the result is compared against variant 0 at its
 * measured nap level, so a host that needs no mitigation ends at its
 * original code rather than at the all-hints variant (the pseudocode
 * initializes best <- 1 and never revisits R0).
 */

#ifndef PROTEAN_PC3D_SEARCH_H
#define PROTEAN_PC3D_SEARCH_H

#include <cstddef>

#include "support/bitvector.h"

namespace protean {
namespace pc3d {

/** Search tuning. */
struct SearchConfig
{
    double qosTarget = 0.95;
    /** Binary-search resolution on nap intensity. */
    double napEpsilon = 0.04;
    /** Maximum nap intensity (napping never fully stops the host). */
    double napCap = 0.98;
    /** Reuse nap bounds across variants (ablation knob; Algorithm 1
     *  behavior when true). */
    bool reuseNapBounds = true;
};

/** One evaluation window's observations. */
struct Measurement
{
    /** Host progress (branches per cycle or per second — any unit,
     *  used only for comparisons). */
    double hostBps = 0.0;
    /** Minimum co-runner QoS over the window. */
    double minQos = 0.0;
    /** Window overlapped a flux probe; it will be discarded. */
    bool tainted = false;
};

/** The greedy variant search. */
class VariantSearch
{
  public:
    /**
     * @param cfg Tuning.
     * @param num_loads Size of the reduced search space (bit i of
     *        every mask refers to the space's i-th load).
     */
    VariantSearch(const SearchConfig &cfg, size_t num_loads);

    /** What the engine should have in place for the next window. */
    struct Request
    {
        /** Variant mask over the search space. */
        BitVector mask;
        /** Nap intensity to apply. */
        double nap = 0.0;
    };

    /** Current request; valid until done(). */
    Request current() const;

    /** Feed one window's measurement; advances the state machine. */
    void onMeasurement(const Measurement &m);

    bool done() const { return phase_ == Phase::Done; }

    /** Winning mask (valid once done). */
    const BitVector &bestMask() const { return bestMask_; }
    /** Nap intensity of the winning configuration. */
    double bestNap() const { return bestNap_; }
    /** Host progress of the winning configuration. */
    double bestBps() const { return bestBps_; }

    /** Total (untainted) evaluation windows consumed. */
    size_t windowsUsed() const { return windows_; }
    /** Variants dispatched for evaluation. */
    size_t variantsTried() const { return variants_; }

  private:
    enum class Phase { Eval0, Eval1, Flip, Done };

    SearchConfig cfg_;
    size_t n_;
    Phase phase_ = Phase::Eval0;

    // Active VariantEval (Algorithm 2) state.
    BitVector evalMask_;
    double lb_ = 0.0;
    double ub_ = 0.0;
    double cur_ = 0.0;
    bool probingLb_ = true;
    bool everOk_ = false;
    double evalBps_ = 0.0;

    // Algorithm 1 state.
    double nap0_ = 0.0, bps0_ = 0.0;
    double napLB_ = 0.0, napUB_ = 0.0;
    BitVector m_;       // working variant
    BitVector bestMask_;
    double bestBps_ = 0.0;
    double bestNap_ = 0.0;
    size_t flipIndex_ = 0;

    size_t windows_ = 0;
    size_t variants_ = 0;

    void startEval(const BitVector &mask, double lb, double ub);
    /** Called when the active VariantEval completes. */
    void evalFinished(double nap, double bps);
    void startNextFlip();
    void finish();
};

} // namespace pc3d
} // namespace protean

#endif // PROTEAN_PC3D_SEARCH_H
