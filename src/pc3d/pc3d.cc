#include "pc3d/pc3d.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/logging.h"

namespace protean {
namespace pc3d {

namespace {

/** Evaluation-window length during search. */
constexpr double kWindowMs = 60.0;
/** Settled-mode check interval. */
constexpr double kSettledWindowMs = 200.0;
/** Warmup before the first search. */
constexpr double kWarmupMs = 250.0;
constexpr double kNapEpsilon = 0.04;
constexpr double kNapCap = 0.98;
/** Hotness mass that defines "covered" functions. */
constexpr double kHotFraction = 0.98;
/** Hard cap on the search-space size (keeps search time
 *  proportionate; the hottest loads survive). */
constexpr size_t kMaxSearchLoads = 24;
/** QoS hysteresis below target before reacting while settled. */
constexpr double kQosSlack = 0.015;
/** Nap adjustment step while settled. */
constexpr double kNapStep = 0.05;
/** Modeled analysis cost per window, in cycles. */
constexpr uint64_t kWindowAnalysisCycles = 120;

} // namespace

Pc3dEngine::Pc3dEngine(runtime::QosMonitor &qos, const Pc3dOptions &opts)
    : qos_(qos), opts_(opts), dispatchedMask_(0)
{
}

void
Pc3dEngine::onStart(runtime::ProteanRuntime &rt)
{
    qos_.start();
    dispatchedMask_ = BitVector(rt.module().numLoads());
    for (size_t i = 0; i < qos_.coCores().size(); ++i)
        coPhase_.emplace_back(0.5);
    windowEnd_ = rt.machine().now() +
        rt.machine().msToCycles(kWarmupMs);
}

BitVector
Pc3dEngine::spaceToModuleMask(const BitVector &space_mask) const
{
    BitVector mask(dispatchedMask_.size());
    for (size_t i = 0; i < space_mask.size(); ++i) {
        if (space_mask.test(i))
            mask.set(space_.loads[i]);
    }
    return mask;
}

void
Pc3dEngine::setNap(runtime::ProteanRuntime &rt, double nap)
{
    nap_ = std::clamp(nap, 0.0, kNapCap);
    rt.napGovernor().setControllerNap(nap_);
}

void
Pc3dEngine::applyMask(runtime::ProteanRuntime &rt,
                      const BitVector &mask)
{
    const ir::Module &module = rt.module();
    for (ir::FuncId f : space_.functions) {
        const auto &loads = rt.binaryIr().loads(f);
        bool changed = false;
        bool all_clear = true;
        for (ir::LoadId id : loads) {
            bool want = id < mask.size() && mask.test(id);
            bool have = id < dispatchedMask_.size() &&
                dispatchedMask_.test(id);
            changed |= want != have;
            all_clear &= !want;
        }
        if (!changed)
            continue;
        if (!rt.evt().virtualized(f)) {
            warn("pc3d: hot function %s is not virtualized; skipping",
                 module.function(f).name().c_str());
            continue;
        }
        if (all_clear) {
            // Empty mask == the original code: dispatch the static
            // entry directly, no compile needed.
            obs::metrics().counter("pc3d.dispatch.reverts").inc();
            rt.evt().retarget(f, rt.host().image().function(f).entry);
        } else {
            obs::metrics().counter("pc3d.dispatch.variants").inc();
            ++pendingDispatch_;
            rt.deployVariant(f, mask, [this] {
                if (pendingDispatch_ > 0)
                    --pendingDispatch_;
            });
        }
    }
    dispatchedMask_ = mask;
    discardNextWindow_ = true;
}

void
Pc3dEngine::startSearch(runtime::ProteanRuntime &rt)
{
    // Heuristic search-space construction from current hotness.
    auto hot = rt.sampler().hotFunctions(kHotFraction);
    space_ = buildSearchSpace(rt.module(), hot);
    if (space_.loads.size() > kMaxSearchLoads)
        space_.loads.resize(kMaxSearchLoads);

    // Charge the analysis (coverage pruning + loop analysis).
    rt.chargeWork(300 * hot.size() + 4 * space_.activeRegionLoads);

    searchStartCycle_ = rt.machine().now();
    obs::metrics().counter("pc3d.search.count").inc();
    if (obs::tracer().enabled()) {
        obs::tracer().instant(
            "pc3d", "search_start",
            strformat("\"hot_functions\":%zu,\"space_loads\":%zu",
                      hot.size(), space_.loads.size()));
    }

    SearchConfig scfg;
    scfg.qosTarget = opts_.qosTarget;
    scfg.napEpsilon = kNapEpsilon;
    scfg.napCap = kNapCap;
    scfg.reuseNapBounds = opts_.reuseNapBounds;
    search_ = std::make_unique<VariantSearch>(scfg,
                                              space_.loads.size());
    ++searches_;
    mode_ = Mode::Search;
    applyRequest(rt);
}

void
Pc3dEngine::applyRequest(runtime::ProteanRuntime &rt)
{
    VariantSearch::Request req = search_->current();
    BitVector mask = spaceToModuleMask(req.mask);
    if (!(mask == dispatchedMask_))
        applyMask(rt, mask);
    setNap(rt, req.nap);
    // Fresh measurement window from here.
    rt.hpm().window(rt.hostCore());
    qos_.minQosWindow();
    qos_.clearTaint();
    windowEnd_ = rt.machine().now() +
        rt.machine().msToCycles(kWindowMs);
}

void
Pc3dEngine::onTick(runtime::ProteanRuntime &rt)
{
    if (rt.machine().now() < windowEnd_)
        return;
    rt.chargeWork(kWindowAnalysisCycles);
    rt.sampler().decay(0.96);

    switch (mode_) {
      case Mode::Warmup:
        startSearch(rt);
        break;
      case Mode::Search:
        windowSearch(rt);
        break;
      case Mode::Settled:
        windowSettled(rt);
        break;
    }
}

void
Pc3dEngine::windowSearch(runtime::ProteanRuntime &rt)
{
    uint64_t window = rt.machine().msToCycles(kWindowMs);

    if (pendingDispatch_ > 0) {
        // Compiles still in flight; give them another window.
        windowEnd_ = rt.machine().now() + window;
        return;
    }
    if (discardNextWindow_) {
        // First boundary after a dispatch ran partially on old code.
        discardNextWindow_ = false;
        rt.hpm().window(rt.hostCore());
        qos_.minQosWindow();
        qos_.clearTaint();
        windowEnd_ = rt.machine().now() + window;
        return;
    }

    Measurement meas;
    sim::HpmCounters host = rt.hpm().window(rt.hostCore());
    meas.hostBps = host.bpc();
    meas.minQos = qos_.minQosWindow();
    meas.tainted = qos_.windowTainted();
    qos_.clearTaint();
    if (!meas.tainted)
        ++searchWindows_;

    search_->onMeasurement(meas);

    if (search_->done()) {
        BitVector mask = spaceToModuleMask(search_->bestMask());
        if (obs::tracer().enabled()) {
            obs::tracer().complete(
                "pc3d", "search", searchStartCycle_,
                rt.machine().now(),
                strformat("\"windows\":%zu,\"variants\":%zu,"
                          "\"best_nap\":%.3f,\"best_bps\":%.6f,"
                          "\"best_mask_bits\":%zu",
                          search_->windowsUsed(),
                          search_->variantsTried(),
                          search_->bestNap(), search_->bestBps(),
                          mask.count()));
        }
        if (!(mask == dispatchedMask_))
            applyMask(rt, mask);
        setNap(rt, search_->bestNap());
        settledBestNap_ = search_->bestNap();
        mode_ = Mode::Settled;
        obs::tracer().instant("pc3d", "settled");
        rt.hpm().window(rt.hostCore());
        qos_.minQosWindow();
        qos_.clearTaint();
        windowEnd_ = rt.machine().now() +
            rt.machine().msToCycles(kSettledWindowMs);
        return;
    }
    applyRequest(rt);
}

void
Pc3dEngine::windowSettled(runtime::ProteanRuntime &rt)
{
    uint64_t window = rt.machine().msToCycles(kSettledWindowMs);
    windowEnd_ = rt.machine().now() + window;

    if (pendingDispatch_ > 0 || discardNextWindow_) {
        discardNextWindow_ = false;
        rt.hpm().window(rt.hostCore());
        qos_.minQosWindow();
        qos_.clearTaint();
        return;
    }

    sim::HpmCounters host = rt.hpm().window(rt.hostCore());
    double min_qos = qos_.minQosWindow();
    bool tainted = qos_.windowTainted();
    qos_.clearTaint();
    if (tainted)
        return;
    lastQos_ = min_qos;
    obs::metrics().gauge("pc3d.qos.last").set(lastQos_);
    obs::tracer().counter("pc3d", "settled_qos", min_qos);
    obs::tracer().counter("pc3d", "host_bpc", host.bpc());

    // Phase analysis: host progress + hot set, co-runner progress.
    bool host_changed =
        hostPhase_.update(host.ipc(),
                          rt.sampler().hotFunctions(kHotFraction));
    bool co_changed = false;
    for (size_t i = 0; i < qos_.coCores().size(); ++i) {
        sim::HpmCounters co = rt.hpm().window(qos_.coCores()[i]);
        co_changed |= coPhase_[i].update(co.ipc());
    }

    if (host_changed || co_changed) {
        // Co-phase change: the solo reference describes the old
        // phase, so re-prime it, revert to the original code, and
        // search again from scratch (Figure 16's t=300/t=600
        // behavior).
        obs::metrics()
            .counter(co_changed ? "pc3d.research.co_phase"
                                : "pc3d.research.host_phase")
            .inc();
        if (obs::tracer().enabled()) {
            obs::tracer().instant(
                "pc3d", "research",
                strformat("\"reason\":\"%s\"",
                          co_changed ? "co_phase_change"
                                     : "host_phase_change"));
        }
        if (co_changed)
            qos_.reprime();
        applyMask(rt, BitVector(dispatchedMask_.size()));
        setNap(rt, 0.0);
        startSearch(rt);
        return;
    }

    // Drift control: nap absorbs small QoS shifts; a large excursion
    // beyond the searched level triggers a fresh search.
    if (min_qos < opts_.qosTarget - kQosSlack) {
        setNap(rt, nap_ + kNapStep);
        if (nap_ > settledBestNap_ + 0.25) {
            obs::metrics().counter("pc3d.research.qos_excursion")
                .inc();
            if (obs::tracer().enabled()) {
                obs::tracer().instant(
                    "pc3d", "research",
                    strformat("\"reason\":\"qos_excursion\","
                              "\"qos\":%.4f",
                              min_qos));
            }
            startSearch(rt);
        }
    } else if (min_qos > opts_.qosTarget + 2 * kQosSlack &&
               nap_ > settledBestNap_) {
        setNap(rt, std::max(settledBestNap_, nap_ - kNapStep / 2));
    }
}

} // namespace pc3d
} // namespace protean
