/**
 * @file
 * Tests for the simulator substrate: functional memory, caches (LRU
 * and non-temporal insertion, and a differential oracle against the
 * array-of-structs cache they replaced), the memory system, core timing
 * mechanisms (nap, stolen cycles, binary translation), and the
 * event-driven machine.
 */

#include <gtest/gtest.h>

#include <bit>

#include "ir/builder.h"
#include "pcc/pcc.h"
#include "sim/cache.h"
#include "sim/machine.h"
#include "sim/memsys.h"
#include "support/logging.h"
#include "support/random.h"

namespace protean {
namespace sim {
namespace {

TEST(PagedMemory, DefaultZero)
{
    PagedMemory mem;
    EXPECT_EQ(mem.read(0), 0u);
    EXPECT_EQ(mem.read(1 << 20), 0u);
    EXPECT_EQ(mem.residentPages(), 0u);
}

TEST(PagedMemory, ReadBack)
{
    PagedMemory mem;
    mem.write(8, 42);
    mem.write(1 << 30, 7);
    EXPECT_EQ(mem.read(8), 42u);
    EXPECT_EQ(mem.read(1 << 30), 7u);
    EXPECT_EQ(mem.read(16), 0u);
}

TEST(PagedMemory, LoadImage)
{
    PagedMemory mem;
    std::vector<uint8_t> img(16, 0);
    img[0] = 0x01;
    img[8] = 0xff;
    img[15] = 0x80;
    mem.loadImage(img);
    EXPECT_EQ(mem.read(0), 0x01u);
    EXPECT_EQ(mem.read(8), 0x80000000000000ffULL);
}

TEST(PagedMemory, Sparseness)
{
    PagedMemory mem;
    mem.write(0, 1);
    mem.write(1ULL << 40, 1);
    EXPECT_EQ(mem.residentPages(), 2u);
}

CacheConfig
tinyCache()
{
    // 2 sets x 2 ways x 64B lines = 256 B.
    CacheConfig cfg;
    cfg.sizeBytes = 256;
    cfg.ways = 2;
    cfg.lineBytes = 64;
    cfg.latency = 1;
    return cfg;
}

TEST(Cache, HitAfterFill)
{
    Cache c("t", tinyCache());
    EXPECT_FALSE(c.access(0));
    c.fill(0, false);
    EXPECT_TRUE(c.access(0));
    EXPECT_TRUE(c.access(63));  // same line
    EXPECT_FALSE(c.access(64)); // next line, other set
    EXPECT_EQ(c.stats().accesses, 4u);
    EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, LruEviction)
{
    Cache c("t", tinyCache());
    // Set 0 holds lines with addresses 0, 128, 256 (stride 128).
    c.fill(0, false);
    c.fill(128, false);
    c.access(0); // make 0 MRU; 128 becomes LRU
    c.fill(256, false);
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(128));
    EXPECT_TRUE(c.contains(256));
}

TEST(Cache, NtInsertEvictedFirst)
{
    Cache c("t", tinyCache());
    c.fill(0, false);
    c.fill(128, true); // NT: inserted at LRU position
    // 0 was inserted earlier but normally; the NT line must be the
    // first victim.
    c.fill(256, false);
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(128));
}

TEST(Cache, NtLinePromotedOnHit)
{
    Cache c("t", tinyCache());
    c.fill(0, false);
    c.fill(128, true);  // NT: would be the next victim...
    c.access(128);      // ...but reuse promotes it above 0
    c.fill(256, false); // one eviction needed
    EXPECT_TRUE(c.contains(128));
    EXPECT_FALSE(c.contains(0));
}

TEST(Cache, OccupancyAccounting)
{
    Cache c("t", tinyCache());
    c.fill(0, false);
    c.fill(64, false);
    c.fill(1 << 20, false);
    EXPECT_EQ(c.linesOwnedBy(0, 4096), 2u);
    EXPECT_EQ(c.linesOwnedBy(1 << 20, 4096), 1u);
}

TEST(Cache, StatsTrackNtFills)
{
    Cache c("t", tinyCache());
    c.fill(0, true);
    c.fill(64, false);
    EXPECT_EQ(c.stats().ntFills, 1u);
}

// LRU corner cases a storage-layout change can silently break.

TEST(Cache, TwoNtLinesLowerWayEvictedFirst)
{
    // One set of four ways.
    CacheConfig cfg{256, 4, 64, 1};
    Cache c("t", cfg);
    c.fill(0, false);
    c.fill(64, true);  // way 1, stamp 0
    c.fill(128, true); // way 2, stamp 0
    c.fill(192, false);
    c.fill(256, false); // ties at stamp 0: way 1 goes first
    EXPECT_FALSE(c.contains(64));
    EXPECT_TRUE(c.contains(128));
    c.fill(320, false); // then way 2
    EXPECT_FALSE(c.contains(128));
    EXPECT_TRUE(c.contains(0));
    EXPECT_TRUE(c.contains(192));
    EXPECT_TRUE(c.contains(256));
    EXPECT_TRUE(c.contains(320));
}

TEST(Cache, PartlyFilledSetSkipsNtWayZero)
{
    // An NT line carries stamp 0 but is valid: the next fill takes
    // the first empty way, not the NT line's.
    CacheConfig cfg{256, 4, 64, 1};
    Cache c("t", cfg);
    c.fill(0, true);
    c.fill(64, false);
    EXPECT_TRUE(c.contains(0));
    c.fill(128, true);
    c.fill(192, false);
    EXPECT_EQ(c.linesOwnedBy(0, 256), 4u);
    // Only now, with the set full, is way 0 the victim.
    c.fill(256, false);
    EXPECT_FALSE(c.contains(0));
    EXPECT_TRUE(c.contains(128));
}

TEST(Cache, MruHintOnRefilledWayStaysCorrect)
{
    Cache c("t", tinyCache());
    c.fill(0, false);   // set 0, way 0
    c.fill(128, false); // set 0, way 1
    c.access(0);
    c.access(128); // 0 is LRU
    // 256 refills way 0, where the hint now points.
    EXPECT_FALSE(c.accessOrFill(256, false));
    EXPECT_FALSE(c.access(0));
    EXPECT_TRUE(c.access(256));
    EXPECT_TRUE(c.access(128));
    // A hit elsewhere moves the hint; the refilled way still hits.
    EXPECT_TRUE(c.access(256));
    EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, FusedAccessInstallsOnMiss)
{
    Cache c("t", tinyCache());
    EXPECT_FALSE(c.accessOrFill(0, true));
    EXPECT_TRUE(c.contains(0));
    EXPECT_EQ(c.stats().ntFills, 1u);
    EXPECT_FALSE(c.access(64));
    EXPECT_FALSE(c.contains(64));
    EXPECT_TRUE(c.accessOrFill(0, false));
    EXPECT_EQ(c.stats().accesses, 3u);
    EXPECT_EQ(c.stats().misses, 2u);
    EXPECT_EQ(c.stats().ntFills, 1u);
}

MachineConfig
smallConfig()
{
    MachineConfig cfg;
    cfg.numCores = 2;
    cfg.prefetchDegree = 0; // precise latency checks
    return cfg;
}

TEST(MemorySystem, LatencyAccumulatesDownHierarchy)
{
    MachineConfig cfg = smallConfig();
    MemorySystem ms(cfg);
    HpmCounters hpm;
    AccessResult r = ms.access(0, 0x1000, false, 0, hpm);
    EXPECT_TRUE(r.dram);
    EXPECT_EQ(r.latency, cfg.l1.latency + cfg.l2.latency +
              cfg.l3.latency + cfg.dramLatency);
    // Second access: L1 hit.
    r = ms.access(0, 0x1000, false, 1000, hpm);
    EXPECT_TRUE(r.l1Hit);
    EXPECT_EQ(r.latency, cfg.l1.latency);
    EXPECT_EQ(hpm.l1Misses, 1u);
    EXPECT_EQ(hpm.dramAccesses, 1u);
}

TEST(MemorySystem, PrivateL1PerCore)
{
    MemorySystem ms(smallConfig());
    HpmCounters hpm;
    ms.access(0, 0x1000, false, 0, hpm);
    // Core 1 misses its own L1/L2 but hits the shared L3.
    AccessResult r = ms.access(1, 0x1000, false, 100, hpm);
    EXPECT_FALSE(r.l1Hit);
    EXPECT_TRUE(r.l3Hit);
}

TEST(MemorySystem, DramQueueingDelays)
{
    MachineConfig cfg = smallConfig();
    MemorySystem ms(cfg);
    HpmCounters hpm;
    // Two back-to-back DRAM accesses at the same instant: the second
    // waits for the channel.
    AccessResult a = ms.access(0, 0x10000, false, 0, hpm);
    AccessResult b = ms.access(1, 0x20000, false, 0, hpm);
    EXPECT_EQ(b.latency, a.latency + cfg.dramOccupancy);
}

TEST(MemorySystem, NtFillGoesToLruInL3)
{
    MachineConfig cfg = smallConfig();
    MemorySystem ms(cfg);
    HpmCounters hpm;
    ms.access(0, 0x1000, true, 0, hpm);
    EXPECT_GT(ms.l3().stats().ntFills, 0u);
    // Value still resident (LruInsert, not bypass).
    EXPECT_TRUE(ms.l3().contains(0x1000));
}

TEST(MemorySystem, NtBypassSkipsSharedLevels)
{
    MachineConfig cfg = smallConfig();
    cfg.ntPolicy = NtPolicy::Bypass;
    MemorySystem ms(cfg);
    HpmCounters hpm;
    ms.access(0, 0x1000, true, 0, hpm);
    EXPECT_FALSE(ms.l3().contains(0x1000));
    EXPECT_FALSE(ms.l2(0).contains(0x1000));
    // L1 still fills so the core's own locality survives.
    EXPECT_TRUE(ms.l1(0).contains(0x1000));
}

TEST(MemorySystem, PrefetcherFillsAhead)
{
    MachineConfig cfg = smallConfig();
    cfg.prefetchDegree = 2;
    cfg.prefetchMinRun = 4;
    MemorySystem ms(cfg);
    HpmCounters hpm;
    // Establish a sequential run so the stride detector arms; once
    // armed, the walk's future lines are covered by prefetch.
    for (int i = 0; i < 8; ++i)
        ms.access(0, 0x3e00 + 64ULL * i, false, 0, hpm);
    EXPECT_GT(ms.prefetches(), 0u);
    // The next line in the walk was prefetched: it hits, not DRAM.
    AccessResult r = ms.access(0, 0x4000, false, 500, hpm);
    EXPECT_FALSE(r.dram);
    // Far-away lines were not touched.
    EXPECT_FALSE(ms.l3().contains(0x4000 + 64ULL * 32));
}

TEST(MemorySystem, PrefetchInheritsNtFlag)
{
    MachineConfig cfg = smallConfig();
    cfg.prefetchDegree = 1;
    cfg.prefetchMinRun = 4;
    MemorySystem ms(cfg);
    HpmCounters hpm;
    for (int i = 0; i < 8; ++i)
        ms.access(0, 0x7e00 + 64ULL * i, true, 0, hpm);
    uint64_t before = ms.l3().stats().ntFills;
    ms.access(0, 0x8000, true, 0, hpm);
    // Demand NT fill + prefetch NT fill.
    EXPECT_EQ(ms.l3().stats().ntFills, before + 2);
}

TEST(MemorySystem, NoPrefetchForStridedAccess)
{
    MachineConfig cfg = smallConfig();
    cfg.prefetchDegree = 4;
    cfg.prefetchMinRun = 4;
    MemorySystem ms(cfg);
    HpmCounters hpm;
    // Stride of 5 lines never arms the detector.
    for (int i = 0; i < 20; ++i)
        ms.access(0, 0x10000 + 320ULL * i, false, 0, hpm);
    EXPECT_EQ(ms.prefetches(), 0u);
}

// --------------------------------------------------------------
// Differential oracle: the array-of-structs cache and memory system
// the SoA cache replaced, kept verbatim. Every simulated result
// depends on the two agreeing operation for operation.

/** The pre-SoA cache: 24-byte lines, fill re-runs the lookup. */
class RefCache
{
  public:
    explicit RefCache(const CacheConfig &cfg)
        : ways_(cfg.ways), lineBytes_(cfg.lineBytes)
    {
        sets_ = cfg.sizeBytes / (cfg.ways * cfg.lineBytes);
        indexShift_ = static_cast<uint32_t>(std::countr_zero(lineBytes_));
        lines_.resize(static_cast<size_t>(sets_) * ways_);
        mruWay_.resize(sets_, 0);
    }

    bool access(uint64_t addr)
    {
        ++stats_.accesses;
        Line *line = findLine(lineAddr(addr));
        if (line) {
            line->lastUse = useCounter_++;
            return true;
        }
        ++stats_.misses;
        return false;
    }

    void fill(uint64_t addr, bool nonTemporal)
    {
        uint64_t la = lineAddr(addr);
        if (findLine(la))
            return; // already resident (e.g. racing fills)
        Line *set = &lines_[static_cast<size_t>(setIndex(la)) * ways_];
        Line *victim = &set[0];
        for (uint32_t w = 0; w < ways_; ++w) {
            if (!set[w].valid) {
                victim = &set[w];
                break;
            }
            if (set[w].lastUse < victim->lastUse)
                victim = &set[w];
        }
        victim->valid = true;
        victim->tag = la;
        mruWay_[setIndex(la)] = static_cast<uint32_t>(victim - set);
        if (nonTemporal) {
            victim->lastUse = 0;
            ++stats_.ntFills;
        } else {
            victim->lastUse = useCounter_++;
        }
    }

    bool contains(uint64_t addr) const
    {
        return findLine(lineAddr(addr)) != nullptr;
    }

    uint64_t linesOwnedBy(uint64_t owner_base, uint64_t owner_span) const
    {
        uint64_t lo = lineAddr(owner_base);
        uint64_t hi = lineAddr(owner_base + owner_span - 1);
        uint64_t n = 0;
        for (const auto &line : lines_) {
            if (line.valid && line.tag >= lo && line.tag <= hi)
                ++n;
        }
        return n;
    }

    const CacheStats &stats() const { return stats_; }

  private:
    struct Line
    {
        uint64_t tag = 0;
        uint64_t lastUse = 0;
        bool valid = false;
    };

    uint32_t sets_;
    uint32_t ways_;
    uint32_t lineBytes_;
    uint32_t indexShift_;
    uint64_t useCounter_ = 1;
    std::vector<Line> lines_;
    std::vector<uint32_t> mruWay_;
    CacheStats stats_;

    uint64_t lineAddr(uint64_t addr) const { return addr >> indexShift_; }

    uint32_t setIndex(uint64_t line_addr) const
    {
        return static_cast<uint32_t>(line_addr & (sets_ - 1));
    }

    Line *findLine(uint64_t line_addr)
    {
        uint32_t si = setIndex(line_addr);
        Line *set = &lines_[static_cast<size_t>(si) * ways_];
        uint32_t m = mruWay_[si];
        if (set[m].valid && set[m].tag == line_addr)
            return &set[m];
        for (uint32_t w = 0; w < ways_; ++w) {
            if (set[w].valid && set[w].tag == line_addr) {
                mruWay_[si] = w;
                return &set[w];
            }
        }
        return nullptr;
    }

    const Line *findLine(uint64_t line_addr) const
    {
        const Line *set =
            &lines_[static_cast<size_t>(setIndex(line_addr)) * ways_];
        for (uint32_t w = 0; w < ways_; ++w) {
            if (set[w].valid && set[w].tag == line_addr)
                return &set[w];
        }
        return nullptr;
    }
};

/** The pre-SoA MemorySystem::access/prefetch over RefCache. */
class RefMemorySystem
{
  public:
    explicit RefMemorySystem(const MachineConfig &cfg)
        : cfg_(cfg), l3_(cfg.l3)
    {
        for (uint32_t c = 0; c < cfg.numCores; ++c) {
            l1_.emplace_back(cfg.l1);
            l2_.emplace_back(cfg.l2);
        }
        lastLine_.assign(cfg.numCores, ~0ULL);
        seqRun_.assign(cfg.numCores, 0);
    }

    AccessResult access(uint32_t core, uint64_t addr, bool nonTemporal,
                        uint64_t now, HpmCounters &hpm)
    {
        noteAccess(core, addr);

        AccessResult res;
        res.latency = cfg_.l1.latency;
        if (l1_[core].access(addr)) {
            res.l1Hit = true;
            return res;
        }
        ++hpm.l1Misses;

        res.latency += cfg_.l2.latency;
        if (l2_[core].access(addr)) {
            res.l2Hit = true;
            l1_[core].fill(addr, false);
            return res;
        }
        ++hpm.l2Misses;

        res.latency += cfg_.l3.latency;
        ++hpm.l3Accesses;
        bool l3_hit = l3_.access(addr);
        if (!l3_hit) {
            ++hpm.l3Misses;
            ++hpm.dramAccesses;
            ++dramAccesses_;
            res.dram = true;
            uint64_t start = std::max(now, dramNextFree_);
            uint64_t queue = start - now;
            dramNextFree_ = start + cfg_.dramOccupancy;
            res.latency += queue + cfg_.dramLatency;
        } else {
            res.l3Hit = true;
        }

        bool nt = nonTemporal;
        bool bypass = nt && cfg_.ntPolicy == NtPolicy::Bypass;
        if (!l3_hit && !bypass)
            l3_.fill(addr, nt);
        if (!bypass)
            l2_[core].fill(addr, nt);
        l1_[core].fill(addr, false);

        if (!l3_hit && streaming(core))
            prefetch(core, addr, nt);
        return res;
    }

    RefCache &l1(uint32_t core) { return l1_[core]; }
    RefCache &l2(uint32_t core) { return l2_[core]; }
    RefCache &l3() { return l3_; }
    uint64_t dramAccesses() const { return dramAccesses_; }
    uint64_t prefetches() const { return prefetches_; }

  private:
    MachineConfig cfg_;
    std::vector<RefCache> l1_;
    std::vector<RefCache> l2_;
    RefCache l3_;
    uint64_t dramNextFree_ = 0;
    uint64_t dramAccesses_ = 0;
    uint64_t prefetches_ = 0;
    std::vector<uint64_t> lastLine_;
    std::vector<uint32_t> seqRun_;

    void noteAccess(uint32_t core, uint64_t addr)
    {
        uint64_t line = addr / cfg_.l1.lineBytes;
        uint64_t last = lastLine_[core];
        if (line == last) {
        } else if (line == last + 1) {
            ++seqRun_[core];
        } else {
            seqRun_[core] = 0;
        }
        lastLine_[core] = line;
    }

    bool streaming(uint32_t core) const
    {
        return seqRun_[core] >= cfg_.prefetchMinRun;
    }

    void prefetch(uint32_t core, uint64_t addr, bool nonTemporal)
    {
        uint32_t line = cfg_.l3.lineBytes;
        if (nonTemporal && cfg_.ntPolicy == NtPolicy::Bypass)
            return;
        for (uint32_t i = 1; i <= cfg_.prefetchDegree; ++i) {
            uint64_t target = addr + static_cast<uint64_t>(i) * line;
            if (l2_[core].contains(target) || l3_.contains(target))
                continue;
            dramNextFree_ += cfg_.dramOccupancy;
            ++dramAccesses_;
            l3_.fill(target, nonTemporal);
            l2_[core].fill(target, nonTemporal);
            ++prefetches_;
        }
    }
};

void
expectSameStats(const CacheStats &got, const CacheStats &want,
                const std::string &where)
{
    EXPECT_EQ(got.accesses, want.accesses) << where;
    EXPECT_EQ(got.misses, want.misses) << where;
    EXPECT_EQ(got.ntFills, want.ntFills) << where;
}

struct OracleGeom
{
    const char *name;
    CacheConfig cfg;
};

/** Keeps the pointer bytes out of the test names. */
void
PrintTo(const OracleGeom &g, std::ostream *os)
{
    *os << g.name;
}

class CacheOracle : public ::testing::TestWithParam<OracleGeom>
{};

TEST_P(CacheOracle, MatchesAosReferenceOpForOp)
{
    const CacheConfig cfg = GetParam().cfg;
    const uint64_t lines = cfg.sizeBytes / cfg.lineBytes;
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        Cache c("soa", cfg);
        RefCache ref(cfg);
        Rng rng(seed * 7919 + lines);
        // Three times the capacity: a mix of hits, misses into
        // partly filled sets and evictions from full ones.
        const uint64_t span = 3 * lines * cfg.lineBytes;
        for (int i = 0; i < 6000; ++i) {
            uint64_t addr = rng.nextBelow(span);
            bool nt = rng.nextBool(0.3);
            std::string where = strformat("seed %llu op %d addr 0x%llx",
                static_cast<unsigned long long>(seed), i,
                static_cast<unsigned long long>(addr));
            switch (rng.nextBelow(6)) {
              case 0:
                ASSERT_EQ(c.access(addr), ref.access(addr)) << where;
                break;
              case 1: {
                // Fused access: the reference's miss-then-fill.
                bool want = ref.access(addr);
                if (!want)
                    ref.fill(addr, nt);
                ASSERT_EQ(c.accessOrFill(addr, nt), want) << where;
                break;
              }
              case 2:
                c.fill(addr, nt);
                ref.fill(addr, nt);
                break;
              case 3: {
                // Probe then install, as the prefetcher drives it.
                Cache::Probe p = c.probe(addr);
                bool want = ref.contains(addr);
                ASSERT_EQ(p.hit, want) << where;
                if (!p.hit) {
                    c.install(p, addr, nt);
                    ref.fill(addr, nt);
                }
                break;
              }
              default:
                ASSERT_EQ(c.contains(addr), ref.contains(addr)) << where;
                break;
            }
            expectSameStats(c.stats(), ref.stats(), where);
            ASSERT_EQ(c.linesOwnedBy(0, span), ref.linesOwnedBy(0, span))
                << where;
            ASSERT_EQ(c.linesOwnedBy(span / 3, span / 3),
                      ref.linesOwnedBy(span / 3, span / 3)) << where;
        }
        // Final residency agrees line by line.
        for (uint64_t a = 0; a < span; a += cfg.lineBytes)
            ASSERT_EQ(c.contains(a), ref.contains(a)) << a;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheOracle,
    ::testing::Values(OracleGeom{"tiny2way", {256, 2, 64, 1}},
                      OracleGeom{"l1", MachineConfig{}.l1},
                      OracleGeom{"l2", MachineConfig{}.l2},
                      OracleGeom{"l3", MachineConfig{}.l3},
                      OracleGeom{"direct", {1024, 1, 64, 1}},
                      OracleGeom{"ways32", {8192, 32, 64, 1}}),
    [](const ::testing::TestParamInfo<OracleGeom> &info) {
        return std::string(info.param.name);
    });

void
expectSameMemsys(MemorySystem &ms, RefMemorySystem &ref,
                 const HpmCounters &hpm, const HpmCounters &ref_hpm,
                 uint32_t cores, const std::string &where)
{
    EXPECT_EQ(hpm.l1Misses, ref_hpm.l1Misses) << where;
    EXPECT_EQ(hpm.l2Misses, ref_hpm.l2Misses) << where;
    EXPECT_EQ(hpm.l3Accesses, ref_hpm.l3Accesses) << where;
    EXPECT_EQ(hpm.l3Misses, ref_hpm.l3Misses) << where;
    EXPECT_EQ(hpm.dramAccesses, ref_hpm.dramAccesses) << where;
    EXPECT_EQ(ms.dramAccesses(), ref.dramAccesses()) << where;
    EXPECT_EQ(ms.prefetches(), ref.prefetches()) << where;
    expectSameStats(ms.l3().stats(), ref.l3().stats(), where + " l3");
    for (uint32_t c = 0; c < cores; ++c) {
        expectSameStats(ms.l1(c).stats(), ref.l1(c).stats(),
                        where + " l1");
        expectSameStats(ms.l2(c).stats(), ref.l2(c).stats(),
                        where + " l2");
    }
}

class MemsysOracle : public ::testing::TestWithParam<NtPolicy>
{};

TEST_P(MemsysOracle, MatchesAosReferenceAccessForAccess)
{
    MachineConfig cfg;
    cfg.ntPolicy = GetParam();
    MemorySystem ms(cfg);
    RefMemorySystem ref(cfg);
    HpmCounters hpm, ref_hpm;
    Rng rng(cfg.ntPolicy == NtPolicy::Bypass ? 11 : 7);
    const uint64_t line = cfg.l1.lineBytes;
    const uint64_t l3_lines = cfg.l3.sizeBytes / line;
    std::vector<uint64_t> cursor(cfg.numCores);
    for (uint32_t c = 0; c < cfg.numCores; ++c)
        cursor[c] = (static_cast<uint64_t>(c) + 1) << 28;
    uint64_t now = 0;
    for (int burst = 0; burst < 400; ++burst) {
        uint32_t core = static_cast<uint32_t>(rng.nextBelow(cfg.numCores));
        bool nt = rng.nextBool(0.4);
        bool stream = rng.nextBool(0.5);
        int n = static_cast<int>(rng.nextRange(1, 64));
        for (int i = 0; i < n; ++i) {
            uint64_t addr;
            if (stream) {
                // Sequential words: arms the stride prefetcher, and
                // wraps over 2x the L3 so prefetches find lines both
                // resident and evicted.
                addr = cursor[core];
                cursor[core] += 8 * rng.nextRange(1, 8);
                if (cursor[core] >= ((static_cast<uint64_t>(core) + 1)
                                     << 28) + 2 * l3_lines * line)
                    cursor[core] = (static_cast<uint64_t>(core) + 1) << 28;
            } else {
                addr = rng.nextBelow(4 * l3_lines) * line +
                       rng.nextBelow(line);
            }
            std::string where = strformat("burst %d access %d", burst, i);
            AccessResult got = ms.access(core, addr, nt, now, hpm);
            AccessResult want = ref.access(core, addr, nt, now, ref_hpm);
            ASSERT_EQ(got.latency, want.latency) << where;
            ASSERT_EQ(got.l1Hit, want.l1Hit) << where;
            ASSERT_EQ(got.l2Hit, want.l2Hit) << where;
            ASSERT_EQ(got.l3Hit, want.l3Hit) << where;
            ASSERT_EQ(got.dram, want.dram) << where;
            expectSameMemsys(ms, ref, hpm, ref_hpm, cfg.numCores, where);
            now += got.latency / 2 + rng.nextBelow(4);
        }
    }
    // The mix really did exercise both paths.
    EXPECT_GT(ms.prefetches(), 100u);
    EXPECT_GT(hpm.l3Accesses - hpm.l3Misses, 100u);
    if (cfg.ntPolicy == NtPolicy::LruInsert)
        EXPECT_GT(ms.l3().stats().ntFills, 100u);
    else
        EXPECT_EQ(ms.l3().stats().ntFills, 0u);
    for (uint64_t a = 0; a < 4 * l3_lines * line; a += line) {
        ASSERT_EQ(ms.l3().contains(a), ref.l3().contains(a)) << a;
        ASSERT_EQ(ms.l2(0).contains(a), ref.l2(0).contains(a)) << a;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, MemsysOracle,
    ::testing::Values(NtPolicy::LruInsert, NtPolicy::Bypass),
    [](const ::testing::TestParamInfo<NtPolicy> &info) {
        return std::string(info.param == NtPolicy::Bypass ? "Bypass" :
                                                            "LruInsert");
    });

/** Build a tiny infinite-loop program for timing tests. */
ir::Module
spinModule(const std::string &name = "spin")
{
    ir::Module m(name);
    ir::IRBuilder b(m);
    b.startFunction("main", 0);
    ir::BlockId loop = b.newBlock();
    ir::Reg one = b.constInt(1);
    ir::Reg acc = b.constInt(0);
    b.br(loop);
    b.setBlock(loop);
    b.binaryInto(acc, ir::Opcode::Add, acc, one);
    b.br(loop);
    return m;
}

TEST(Core, NapDutyCycleThrottles)
{
    ir::Module m = spinModule();
    isa::Image image = pcc::compilePlain(m);

    auto run_with_nap = [&](double nap) {
        Machine machine;
        Process &proc = machine.load(image, 0);
        (void)proc;
        machine.core(0).setNapIntensity(nap);
        machine.runFor(1'000'000);
        return machine.core(0).hpm().instructions;
    };

    uint64_t full = run_with_nap(0.0);
    uint64_t half = run_with_nap(0.5);
    uint64_t tenth = run_with_nap(0.9);
    EXPECT_NEAR(static_cast<double>(half) / full, 0.5, 0.05);
    EXPECT_NEAR(static_cast<double>(tenth) / full, 0.1, 0.05);
}

TEST(Core, NappedCyclesCounted)
{
    ir::Module m = spinModule();
    isa::Image image = pcc::compilePlain(m);
    Machine machine;
    machine.load(image, 0);
    machine.core(0).setNapIntensity(0.25);
    machine.runFor(400'000);
    double frac = static_cast<double>(
        machine.core(0).hpm().nappedCycles) /
        machine.core(0).hpm().cycles;
    EXPECT_NEAR(frac, 0.25, 0.03);
}

TEST(Core, StolenCyclesDelayHost)
{
    ir::Module m = spinModule();
    isa::Image image = pcc::compilePlain(m);

    Machine base;
    base.load(image, 0);
    base.runFor(100'000);
    uint64_t unimpeded = base.core(0).hpm().instructions;

    Machine machine;
    machine.load(image, 0);
    machine.core(0).stealCycles(50'000);
    machine.runFor(100'000);
    uint64_t impeded = machine.core(0).hpm().instructions;
    EXPECT_NEAR(static_cast<double>(impeded) / unimpeded, 0.5, 0.05);
    EXPECT_EQ(machine.core(0).hpm().stolenCycles, 50'000u);
}

TEST(Core, StolenCyclesOnIdleCore)
{
    Machine machine;
    machine.core(2).stealCycles(10'000);
    machine.runFor(50'000);
    EXPECT_EQ(machine.core(2).hpm().stolenCycles, 10'000u);
}

TEST(Core, BinaryTranslationAddsOverhead)
{
    ir::Module m = spinModule();
    isa::Image image = pcc::compilePlain(m);

    Machine native;
    native.load(image, 0);
    native.runFor(500'000);
    uint64_t native_instrs = native.core(0).hpm().instructions;

    Machine bt;
    bt.load(image, 0);
    BtConfig cfg;
    cfg.enabled = true;
    bt.core(0).setBtConfig(cfg);
    bt.runFor(500'000);
    uint64_t bt_instrs = bt.core(0).hpm().instructions;

    EXPECT_LT(bt_instrs, native_instrs);
    // The spin loop is a worst case (a taken branch every other
    // instruction), so the dispatch tax is huge but bounded.
    EXPECT_GT(bt_instrs, native_instrs / 40);
}

TEST(Core, BtIndirectCostExceedsDirect)
{
    // A call-heavy program suffers more under BT than a jump-heavy
    // one of equal instruction count.
    ir::Module calls("calls");
    {
        ir::IRBuilder b(calls);
        b.startFunction("leaf", 0);
        b.ret();
        b.startFunction("main", 0);
        ir::BlockId loop = b.newBlock();
        b.br(loop);
        b.setBlock(loop);
        b.callVoid(0);
        b.br(loop);
    }
    isa::Image ci = pcc::compilePlain(calls);

    auto ipc_under = [&](const isa::Image &img, bool bt_on) {
        Machine machine;
        machine.load(img, 0);
        if (bt_on) {
            BtConfig cfg;
            cfg.enabled = true;
            machine.core(0).setBtConfig(cfg);
        }
        machine.runFor(300'000);
        return machine.core(0).hpm().ipc();
    };

    ir::Module jumps = spinModule("jumps");
    isa::Image ji = pcc::compilePlain(jumps);

    double call_slowdown = ipc_under(ci, false) / ipc_under(ci, true);
    double jump_slowdown = ipc_under(ji, false) / ipc_under(ji, true);
    EXPECT_GT(call_slowdown, jump_slowdown);
}

TEST(Machine, EventsFireInOrder)
{
    Machine machine;
    std::vector<int> order;
    machine.schedule(100, [&] { order.push_back(2); });
    machine.schedule(50, [&] { order.push_back(1); });
    machine.schedule(100, [&] { order.push_back(3); }); // FIFO at tie
    machine.runFor(200);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
    EXPECT_EQ(order[2], 3);
    EXPECT_EQ(machine.now(), 200u);
}

TEST(Machine, EventsCanReschedule)
{
    Machine machine;
    int fires = 0;
    std::function<void()> tick = [&] {
        ++fires;
        if (fires < 5)
            machine.scheduleAfter(10, tick);
    };
    machine.scheduleAfter(10, tick);
    machine.runFor(1000);
    EXPECT_EQ(fires, 5);
}

TEST(Machine, RunToCompletionHalts)
{
    ir::Module m("finite");
    ir::IRBuilder b(m);
    b.startFunction("main", 0);
    b.ret();
    isa::Image image = pcc::compilePlain(m);
    Machine machine;
    Process &proc = machine.load(image, 0);
    machine.runToCompletion();
    EXPECT_EQ(proc.state(), ProcState::Halted);
    EXPECT_TRUE(machine.allHalted());
}

TEST(Machine, DeterministicAcrossRuns)
{
    auto run = [] {
        ir::Module m = spinModule();
        isa::Image image = pcc::compilePlain(m);
        Machine machine;
        machine.load(image, 0);
        machine.load(image, 1);
        machine.runFor(123'456);
        return std::make_pair(machine.core(0).hpm().instructions,
                              machine.core(1).hpm().instructions);
    };
    EXPECT_EQ(run(), run());
}

/** A looping walker over `bytes` of data. `stride_bytes` of one
 *  line is prefetch-friendly streaming; five lines defeats the
 *  stride prefetcher (a latency-sensitive pattern). */
ir::Module
walkerModule(uint64_t bytes, const std::string &name,
             int64_t stride_bytes = 64)
{
    ir::Module m(name);
    ir::IRBuilder b(m);
    ir::GlobalId g = m.addGlobal("a", bytes + 4096);
    b.startFunction("main", 0);
    ir::Reg base = b.globalAddr(g);
    ir::Reg mask = b.constInt(static_cast<int64_t>(bytes - 64));
    ir::Reg stride = b.constInt(stride_bytes);
    ir::Reg cur = b.constInt(0);
    ir::Reg x = b.func().newReg();
    ir::Reg addr = b.func().newReg();
    b.func().noteReg(x);
    b.func().noteReg(addr);
    ir::BlockId loop = b.newBlock();
    b.br(loop);
    b.setBlock(loop);
    b.binaryInto(addr, ir::Opcode::And, cur, mask);
    b.binaryInto(addr, ir::Opcode::Add, addr, base);
    b.loadInto(x, addr);
    b.binaryInto(cur, ir::Opcode::Add, cur, stride);
    b.br(loop);
    return m;
}

TEST(Machine, SharedL3Contention)
{
    // A reuse walker (fits the LLC) is slowed by a streaming
    // co-runner that thrashes the LLC.
    ir::Module victim_m = walkerModule(64 * 1024, "victim", 320);
    isa::Image victim = pcc::compilePlain(victim_m);
    ir::Module streamer_m = walkerModule(4 << 20, "streamer");
    isa::Image streamer = pcc::compilePlain(streamer_m);

    Machine solo;
    solo.load(victim, 0);
    solo.runFor(3'000'000);
    uint64_t alone = solo.core(0).hpm().instructions;

    Machine duo;
    duo.load(victim, 0);
    duo.load(streamer, 1);
    duo.runFor(3'000'000);
    uint64_t together = duo.core(0).hpm().instructions;
    EXPECT_LT(static_cast<double>(together),
              0.92 * static_cast<double>(alone));
}

TEST(Machine, NtHintsShieldCoRunner)
{
    // The paper's core effect: the same streamer with non-temporal
    // loads takes far less from its co-runner.
    ir::Module victim_m = walkerModule(64 * 1024, "victim", 320);
    isa::Image victim = pcc::compilePlain(victim_m);

    auto victim_speed = [&](bool nt) {
        ir::Module sm = walkerModule(4 << 20, "streamer");
        sm.renumberLoads();
        isa::Image streamer = pcc::compilePlain(sm);
        if (nt) {
            for (auto &inst : streamer.code) {
                if (inst.op == isa::MOp::Load)
                    inst.nonTemporal = true;
            }
        }
        Machine duo;
        duo.load(victim, 0);
        duo.load(streamer, 1);
        duo.runFor(3'000'000);
        return duo.core(0).hpm().instructions;
    };

    uint64_t with_plain = victim_speed(false);
    uint64_t with_nt = victim_speed(true);
    EXPECT_GT(static_cast<double>(with_nt),
              1.05 * static_cast<double>(with_plain));
}

TEST(Machine, LoadRejectsBusyCore)
{
    ir::Module m = spinModule();
    isa::Image image = pcc::compilePlain(m);
    Machine machine;
    machine.load(image, 0);
    EXPECT_DEATH(
        { Machine bad; bad.load(image, 0); bad.load(image, 0); },
        "already busy");
}

TEST(Machine, PcSamplingSeesHostPc)
{
    ir::Module m = spinModule();
    isa::Image image = pcc::compilePlain(m);
    Machine machine;
    Process &proc = machine.load(image, 0);
    machine.runFor(10'000);
    isa::CodeAddr pc = machine.core(0).pc();
    const isa::FunctionInfo *fi = proc.image().functionAt(pc);
    ASSERT_NE(fi, nullptr);
    EXPECT_EQ(fi->name, "main");
}

} // namespace
} // namespace sim
} // namespace protean
