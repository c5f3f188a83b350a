/**
 * @file
 * Host-time benchmark program.
 *
 *   perfbench --workload <colo|fleet|fleet-faults> --seed <n>
 *             --seconds <s> --trace <0|1> --refs <dir>
 *   perfbench --workload <w> --refs <dir> --write-refs
 *
 * --trace 0 runs the workload untraced and prints the end-to-end
 * metrics; --trace 1 runs it traced (plus the layer probes and an
 * untraced pass for the overhead) and prints the per-layer metrics.
 * A readable table goes to stderr; the last line of stdout is one
 * JSON object {correct, attempted, failed, metrics}.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

using namespace perfbench;

namespace {

struct Args
{
    std::string workload;
    bool trace = false;
    bool writeRefs = false;
    RunArgs run;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench "
                 "--workload <colo|fleet|fleet-faults> --seed <n> "
                 "--seconds <s> --trace <0|1> --refs <dir> "
                 "[--write-refs]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (k == "--write-refs") {
            a.writeRefs = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.run.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.run.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--refs")
            a.run.refsDir = v;
        else
            usage(("unknown flag " + k).c_str());
    }
    if (a.workload != "colo" && a.workload != "fleet" &&
        a.workload != "fleet-faults")
        usage("unknown workload");
    if (a.run.refsDir.empty())
        usage("--refs is required");
    if (!(a.run.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank item time at the highest whole percentile that
 *  leaves at least ten items beyond it (the median below 20 items). */
struct Tail
{
    double value = 0.0;
    int pct = 0;
    size_t beyond = 0;
};

Tail
tail(std::vector<double> v)
{
    Tail t;
    size_t n = v.size();
    if (n == 0)
        return t;
    std::sort(v.begin(), v.end());
    t.pct = n >= 20 ? static_cast<int>(100 * (n - 10) / n) : 50;
    size_t rank = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(t.pct * n / 100.0)));
    t.value = v[rank - 1];
    t.beyond = n - rank;
    return t;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** A JSON number with all its digits (0 for a non-finite value). */
std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

void
printFailures(const Report &rep)
{
    for (const Item &it : rep.items)
        if (it.failed)
            std::fprintf(stderr, "FAILED %s: %s\n", it.name.c_str(),
                         it.why.c_str());
    for (const std::string &c : rep.badChecks)
        std::fprintf(stderr, "FAILED %s\n", c.c_str());
}

void
printResult(size_t attempted, size_t failed, const Metrics &ms)
{
    std::fprintf(stderr, "\n%-32s %20s  %s\n", "metric", "value",
                 "unit");
    for (const Metric &m : ms)
        std::fprintf(stderr, "%-32s %20.6f  %s\n", m.name.c_str(),
                     m.value, m.unit.c_str());
    std::fprintf(stderr, "%-32s %20.6f  ratio (%zu of %zu)\n",
                 "failed_frac", ratio(failed, attempted), failed,
                 attempted);
    std::string json = "{\"correct\": ";
    json += failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < ms.size(); ++i)
        json += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " +
            number(ms[i].value) + ", \"unit\": \"" + ms[i].unit + "\"}";
    json += "}}";
    std::printf("%s\n", json.c_str());
}

Report
untraced(const Args &a)
{
    if (a.workload == "colo")
        return runColo(a.run);
    return runFleet(a.run, a.workload == "fleet-faults", 2, nullptr,
                    nullptr);
}

int
endToEnd(const Args &a)
{
    Report rep = untraced(a);
    std::vector<double> secs, setup;
    double cpu = 0.0;
    for (const Item &it : rep.items) {
        secs.push_back(it.seconds);
        cpu += it.cpuS;
    }
    for (const Item &it : rep.setups)
        setup.push_back(it.seconds);
    const double wall = rep.wallS();
    Tail t = tail(secs);
    Metrics ms = {
        {"wall_s", wall, "s"},
        {"sim_mips",
         ratio(static_cast<double>(rep.instructions), wall) * 1e-6,
         "Minst/s"},
        {"item_p50_s", median(secs), "s"},
        {"item_tail_s", t.value, "s"},
        {"setup_s", median(setup), "s"},
        {"cpu_s", cpu, "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    printFailures(rep);
    std::fprintf(stderr,
                 "%s: %zu items, item_tail_s is p%d (%zu items "
                 "beyond), setup median of %zu\n",
                 a.workload.c_str(), secs.size(), t.pct, t.beyond,
                 rep.setups.size());
    printResult(rep.attempted(), rep.failed(), ms);
    return 0;
}

int
traced(const Args &a)
{
    Spans spans;
    SimCounts sim;
    Report tr, lane1;
    std::vector<protean::fleet::FleetStats> finals;
    std::vector<std::unique_ptr<ProbeImage>> images;
    bool colo = a.workload == "colo";
    bool faults = a.workload == "fleet-faults";

    if (colo) {
        tr = runColo(a.run, &spans, &sim);
        for (const std::string &b : coloBatches())
            images.push_back(makeProbeImage(b));
    } else {
        tr = runFleet(a.run, faults, 2, &spans, &finals);
        lane1 = runFleet(a.run, faults, 1, nullptr, nullptr);
        // The fleet exposes instructions only through its profile;
        // the HPM mix and superblock counters come from one server
        // of the same binary and machine run alone.
        sim = fleetServerProbe();
        images.push_back(makeProbeImage("soplex"));
    }
    const double insts = static_cast<double>(tr.instructions);
    Report probes;
    runImageProbes(images, spans, probes);
    uint64_t memsys_calls = 0;
    runMemsysProbe(a.run.seed, spans, &memsys_calls);
    Report plain = untraced(a);

    auto tot = spans.totals();
    auto self = [&tot](const char *n) { return tot[n].selfS; };
    auto calls = [&tot](const char *n) {
        return static_cast<double>(tot[n].calls);
    };
    auto per_call = [&](const char *n, double scale) {
        return ratio(self(n), calls(n)) * scale;
    };
    double run_self = self("datacenter.settle") +
        self("datacenter.measure") + self("fleet.run");

    protean::fleet::FleetStats fs;
    for (const auto &st : finals) {
        fs.service.requests += st.service.requests;
        fs.service.hits += st.service.hits;
        fs.service.compiles += st.service.compiles;
        fs.service.evictions += st.service.evictions;
        fs.service.validatePasses += st.service.validatePasses;
        fs.client.retries += st.client.retries;
        fs.client.localFallbacks += st.client.localFallbacks;
        fs.stalledRequests += st.stalledRequests;
    }
    auto count = [](uint64_t v) { return static_cast<double>(v); };

    Metrics ms = {
        {"sim.run.self_s", run_self, "s"},
        {"sim.host_ns_per_inst", ratio(run_self * 1e9, insts), "ns"},
        {"sim.superblock_hit_rate",
         ratio(count(sim.sbHits), count(sim.sbHits + sim.sbMisses)),
         "ratio"},
        {"sim.instructions", insts, "count"},
        {"sim.mem_ops_per_inst",
         ratio(count(sim.memOps), count(sim.instructions)), "ratio"},
        {"sim.l1_miss_rate",
         ratio(count(sim.l1Misses), count(sim.memOps)), "ratio"},
        {"sim.l3_miss_rate",
         ratio(count(sim.l3Misses), count(sim.l3Accesses)), "ratio"},
        {"memsys.access_hit_ns",
         ratio(self("memsys.hit") * 1e9, count(memsys_calls)), "ns"},
        {"memsys.access_miss_ns",
         ratio(self("memsys.miss") * 1e9, count(memsys_calls)), "ns"},
        {"memsys.access.calls", 2.0 * count(memsys_calls), "count"},
        {"datacenter.cells", calls("datacenter.cell"), "count"},
        {"datacenter.cell_ctor_ms",
         per_call("datacenter.cell_ctor", 1e3), "ms"},
        {"datacenter.settle_s", self("datacenter.settle"), "s"},
        {"datacenter.measure_s", self("datacenter.measure"), "s"},
        {"datacenter.solo_bpc_s", self("datacenter.solo_bpc"), "s"},
        {"runtime.attach_ms", per_call("runtime.attach", 1e3), "ms"},
        {"runtime.attach.calls", calls("runtime.attach"), "count"},
        {"runtime.ctor_ms", per_call("runtime.ctor", 1e3), "ms"},
        {"runtime.ctor.calls", calls("runtime.ctor"), "count"},
        {"ir.decompress_ms", per_call("ir.decompress", 1e3), "ms"},
        {"ir.deserialize_ms", per_call("ir.deserialize", 1e3), "ms"},
        {"ir.blob.calls", calls("ir.deserialize"), "count"},
        {"ir.function_hash_us", per_call("ir.function_hash", 1e6),
         "us"},
        {"ir.function_hash.calls", calls("ir.function_hash"), "count"},
        {"codegen.lower_us", per_call("codegen.lower", 1e6), "us"},
        {"codegen.lower.calls", calls("codegen.lower"), "count"},
        {"validate.call_us", per_call("validate.call", 1e6), "us"},
        {"validate.calls", calls("validate.call"), "count"},
        {"fleet.ctor_s", self("fleet.ctor"), "s"},
        {"fleet.run.self_s", self("fleet.run"), "s"},
        {"fleet.slices", calls("fleet.run"), "count"},
        {"fleet.parallel_efficiency",
         colo ? 0.0 : ratio(lane1.wallS(), 2.0 * plain.wallS()), "ratio"},
        {"fleet.service.requests", count(fs.service.requests), "count"},
        {"fleet.service.hit_rate",
         ratio(count(fs.service.hits), count(fs.service.requests)),
         "ratio"},
        {"fleet.service.compiles", count(fs.service.compiles), "count"},
        {"fleet.service.evictions", count(fs.service.evictions),
         "count"},
        {"fleet.service.validate_passes",
         count(fs.service.validatePasses), "count"},
        {"fleet.client.retries", count(fs.client.retries), "count"},
        {"fleet.client.fallbacks", count(fs.client.localFallbacks),
         "count"},
        {"fleet.stalled", count(fs.stalledRequests), "count"},
        {"trace.overhead_frac",
         ratio(tr.wallS(), plain.wallS()) - 1.0, "ratio"},
    };
    size_t attempted = 0, failed = 0;
    for (const Report *r : {&tr, &lane1, &probes, &plain}) {
        printFailures(*r);
        attempted += r->attempted();
        failed += r->failed();
    }
    std::fprintf(stderr,
                 "%s traced: %zu spans; traced wall %.3f s, untraced "
                 "wall %.3f s%s\n",
                 a.workload.c_str(), spans.size(), tr.wallS(),
                 plain.wallS(),
                 colo ? "" : "; digests checked at 2 and 1 lanes");
    printResult(attempted, failed, ms);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parseArgs(argc, argv);
    if (a.writeRefs) {
        std::string path = a.run.refsDir + "/" + a.workload + ".txt";
        if (a.workload == "colo")
            writeColoRefs(path);
        else
            writeFleetRefs(path, a.workload == "fleet-faults");
        std::fprintf(stderr, "wrote %s\n", path.c_str());
        return 0;
    }
    return a.trace ? traced(a) : endToEnd(a);
}
