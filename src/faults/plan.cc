#include "faults/plan.h"

#include <algorithm>

#include "support/logging.h"

namespace protean {
namespace faults {

namespace {

/** Domain-separation tags for the pure decision hashes. */
constexpr uint64_t kTagDrop = 0xd209;
constexpr uint64_t kTagDelay = 0xde1a;
constexpr uint64_t kTagRespCorrupt = 0xc027;
constexpr uint64_t kTagCacheCorrupt = 0xcac4;
constexpr uint64_t kTagPause = 0x9a05;
constexpr uint64_t kTagShardStream = 0x54a2;
constexpr uint64_t kTagMiscompile = 0xbadc;
constexpr uint64_t kTagMiscompileShape = 0x5a9e;

/** In-transit delay of a delayed request, in cycles. */
constexpr uint64_t kRequestDelayCycles = 2000;
/** Length of one injected server pause, in cycles. */
constexpr uint64_t kServerPauseCycles = 10000;

} // namespace

const char *
miscompileKindName(MiscompileKind k)
{
    switch (k) {
      case MiscompileKind::DroppedStore: return "dropped-store";
      case MiscompileKind::FlippedNtBit: return "flipped-nt-bit";
      case MiscompileKind::SwappedOperand: return "swapped-operand";
    }
    return "?";
}

FaultPlan::FaultPlan(const FaultConfig &cfg)
    : cfg_(cfg), enabled_(cfg.anyEnabled())
{
}

uint64_t
FaultPlan::hashBits(uint64_t tag, uint64_t a, uint64_t b) const
{
    uint64_t h = mix64(cfg_.seed ^ mix64(tag));
    h = mix64(h ^ mix64(a));
    return mix64(h ^ mix64(b));
}

double
FaultPlan::hash01(uint64_t tag, uint64_t a, uint64_t b) const
{
    return static_cast<double>(hashBits(tag, a, b) >> 11) *
        0x1.0p-53;
}

FaultPlan::ShardSchedule &
FaultPlan::sched(uint32_t shard)
{
    auto it = shards_.find(shard);
    if (it != shards_.end())
        return it->second;
    ShardSchedule s;
    s.rng = Rng(mix64(cfg_.seed ^ mix64(kTagShardStream + shard)));
    return shards_.emplace(shard, std::move(s)).first->second;
}

void
FaultPlan::extend(ShardSchedule &s, uint64_t up_to)
{
    if (cfg_.shardCrashMeanCycles <= 0.0) {
        s.horizon = std::max(s.horizon, up_to);
        return; // manual outages only
    }
    while (s.horizon <= up_to) {
        uint64_t up = std::max<uint64_t>(
            1, static_cast<uint64_t>(
                   s.rng.nextExponential(cfg_.shardCrashMeanCycles)));
        ShardOutage o;
        o.at = s.lastEnd + up;
        o.until = o.at + std::max<uint64_t>(1, cfg_.shardRestartCycles);
        s.outages.push_back(o);
        s.lastEnd = o.until;
        s.horizon = o.until;
    }
}

void
FaultPlan::addShardOutage(uint32_t shard, uint64_t at, uint64_t until)
{
    if (until <= at)
        fatal("FaultPlan: outage must end after it starts");
    ShardSchedule &s = sched(shard);
    if (!s.outages.empty() && at < s.outages.back().until)
        fatal("FaultPlan: outages must be scripted in order");
    s.outages.push_back(ShardOutage{at, until});
    s.lastEnd = until;
    enabled_ = true;
}

bool
FaultPlan::shardDownAt(uint32_t shard, uint64_t cycle)
{
    if (!enabled_)
        return false;
    ShardSchedule &s = sched(shard);
    extend(s, cycle);
    // Outages are ordered and non-overlapping: find the first one
    // ending after `cycle` and check containment.
    auto it = std::upper_bound(
        s.outages.begin(), s.outages.end(), cycle,
        [](uint64_t c, const ShardOutage &o) { return c < o.until; });
    return it != s.outages.end() && it->at <= cycle;
}

const ShardOutage *
FaultPlan::peekOutage(uint32_t shard, uint64_t up_to)
{
    if (!enabled_)
        return nullptr;
    ShardSchedule &s = sched(shard);
    extend(s, up_to);
    if (s.cursor >= s.outages.size() ||
        s.outages[s.cursor].at > up_to)
        return nullptr;
    return &s.outages[s.cursor];
}

void
FaultPlan::consumeOutage(uint32_t shard)
{
    ShardSchedule &s = sched(shard);
    if (s.cursor >= s.outages.size())
        panic("FaultPlan: consumeOutage with nothing pending");
    ++s.cursor;
}

bool
FaultPlan::dropRequest(uint64_t seq) const
{
    return cfg_.requestDropProb > 0.0 &&
        hash01(kTagDrop, seq, 0) < cfg_.requestDropProb;
}

uint64_t
FaultPlan::requestDelay(uint64_t seq) const
{
    if (cfg_.requestDelayProb <= 0.0)
        return 0;
    return hash01(kTagDelay, seq, 0) < cfg_.requestDelayProb ?
        kRequestDelayCycles : 0;
}

bool
FaultPlan::corruptResponse(uint64_t seq) const
{
    return cfg_.responseCorruptProb > 0.0 &&
        hash01(kTagRespCorrupt, seq, 0) < cfg_.responseCorruptProb;
}

bool
FaultPlan::corruptCachedEntry(uint64_t key, uint64_t cycle) const
{
    return cfg_.cacheCorruptProb > 0.0 &&
        hash01(kTagCacheCorrupt, key, cycle) < cfg_.cacheCorruptProb;
}

void
FaultPlan::addMiscompile(uint64_t key, uint32_t attempt,
                         const MiscompileSpec &spec)
{
    scriptedMiscompiles_[{key, attempt}] = spec;
    enabled_ = true;
}

bool
FaultPlan::miscompile(uint64_t key, uint32_t attempt,
                      MiscompileSpec *out) const
{
    auto it = scriptedMiscompiles_.find({key, attempt});
    if (it != scriptedMiscompiles_.end()) {
        if (out)
            *out = it->second;
        return true;
    }
    if (cfg_.miscompileProb <= 0.0 ||
        hash01(kTagMiscompile, key, attempt) >= cfg_.miscompileProb)
        return false;
    if (out) {
        uint64_t shape = hashBits(kTagMiscompileShape, key, attempt);
        out->kind = static_cast<MiscompileKind>(
            shape % kNumMiscompileKinds);
        out->siteSeed = shape >> 8;
    }
    return true;
}

uint64_t
FaultPlan::serverPauseCycles(uint32_t server,
                             uint64_t quantum_start) const
{
    if (cfg_.serverPauseProb <= 0.0)
        return 0;
    return hash01(kTagPause, server, quantum_start) <
            cfg_.serverPauseProb ?
        kServerPauseCycles : 0;
}

} // namespace faults
} // namespace protean
