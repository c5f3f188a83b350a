/**
 * @file
 * Shared pieces of the host-time benchmark: clocks, the in-memory
 * span recorder, output digests, reference tables and the per-run
 * report each workload fills in.
 *
 * Every timing here is host time. The simulator is driven only
 * through its public functions; spans are recorded around those
 * calls from the benchmark's own code.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Host wall clock, seconds (steady). */
double wallNow();

/** Host CPU time of the whole process (user + sys, all threads). */
double cpuNow();

/** Peak resident set of this process, MB. */
double peakRssMb();

/**
 * Spans kept in memory for the traced run. Each span has a name,
 * start, end and parent; a span's self time is its duration minus the
 * time its direct children cover (children of one thread nest, so
 * their durations do not overlap).
 */
class Spans
{
  public:
    /** RAII span: opened on construction, closed on destruction. */
    class Scope
    {
      public:
        Scope(Spans *spans, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans *spans_;
        size_t index_ = 0;
    };

    struct Total
    {
        double selfS = 0.0;
        uint64_t calls = 0;
    };

    /** Self time and call count per span name. */
    std::map<std::string, Total> totals() const;

    size_t size() const { return spans_.size(); }

  private:
    struct Span
    {
        const char *name;
        double start = 0.0;
        double end = 0.0;
        int64_t parent = -1;
    };
    std::vector<Span> spans_;
    int64_t open_ = -1;
};

/** FNV-1a over the exact bits of each value fed to it. */
class Digest
{
  public:
    void add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }
    void add(double v)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
    std::string hex() const;

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** One timed unit of work: a colocation cell or a fleet slice. */
struct Item
{
    std::string name;
    double seconds = 0.0;
    /** Process CPU time over the same interval. */
    double cpuS = 0.0;
    bool failed = false;
    std::string why;
};

/** What one pass over a workload measured. */
struct Report
{
    std::vector<Item> items;
    /** One per set-up repetition. */
    std::vector<Item> setups;
    /** Simulated instructions retired by the timed work. */
    uint64_t instructions = 0;
    /** Checks that are not timed items (probe verdicts). */
    uint64_t checks = 0;
    std::vector<std::string> badChecks;

    size_t attempted() const { return items.size() + checks; }
    size_t failed() const;
    /** Sum of item host times. */
    double wallS() const;
};

/** Reference digests: key -> whitespace-separated fields. */
using RefTable = std::map<std::string, std::vector<std::string>>;

RefTable readRefs(const std::string &path);

/** Sim counters the traced run collects (summed over cores). */
struct SimCounts
{
    uint64_t instructions = 0;
    uint64_t memOps = 0;
    uint64_t l1Misses = 0;
    uint64_t l3Accesses = 0;
    uint64_t l3Misses = 0;
    uint64_t sbHits = 0;
    uint64_t sbMisses = 0;

    void add(const SimCounts &o)
    {
        instructions += o.instructions;
        memOps += o.memOps;
        l1Misses += o.l1Misses;
        l3Accesses += o.l3Accesses;
        l3Misses += o.l3Misses;
        sbHits += o.sbHits;
        sbMisses += o.sbMisses;
    }
};

/** One named output value, in output order. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};
using Metrics = std::vector<Metric>;

/** Common arguments of every workload. */
struct RunArgs
{
    uint64_t seed = 1;
    double seconds = 30.0;
    std::string refsDir;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
