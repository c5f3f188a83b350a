/**
 * @file
 * Shared helpers for the figure-regeneration benches.
 *
 * The simulator is deterministic, so overheads are measured as exact
 * ratios of retired branches over a fixed cycle window (branches are
 * control-invariant under every transformation studied, which is why
 * the paper uses BPS for host progress).
 */

#ifndef PROTEAN_BENCH_COMMON_H
#define PROTEAN_BENCH_COMMON_H

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "pcc/pcc.h"
#include "sim/machine.h"
#include "support/json.h"
#include "support/logging.h"
#include "support/table.h"
#include "workloads/registry.h"

namespace protean {
namespace bench {

/**
 * Observability exports requested on the command line. Every fig
 * bench accepts `--trace=<path>` (Chrome trace JSON, open in
 * Perfetto) and `--metrics=<path>` (metrics-registry snapshot);
 * timestamps are simulated cycles, so repeated runs produce
 * byte-identical files.
 */
struct ObsConfig
{
    std::string tracePath;
    std::string metricsPath;
    /** Merged continuous-profile JSON export (--profile). */
    std::string profilePath;
    /** Folded-stack export for flamegraph.pl (--flamegraph). */
    std::string flamegraphPath;
    /** Root seed for any stochastic model in the bench (--seed). */
    uint64_t seed = 42;
    /** Host-side worker threads for fleet-stepping benches
     *  (--parallel; results stay byte-identical to serial). */
    uint64_t parallel = 1;
    /** Translation-validation install-gate mode for fleet benches
     *  (--validate=off|ir|diff|paranoid; empty keeps each bench's
     *  default). Kept as a string so common.h stays independent of
     *  src/validate; benches parse it with validate::parseMode. */
    std::string validateMode;
    /** On-stack replacement mode for fleet benches
     *  (--osr=on|off|both; empty keeps each bench's default).
     *  "both" is only meaningful to comparison studies such as
     *  fleet_faults --hotloop. */
    std::string osr;
};

/**
 * Small command-line flag parser for the benches.
 *
 * Built-in flags: `--trace=<path>`, `--metrics=<path>`,
 * `--seed=<n>`, `--engine=step|batch`, `--parallel=<n>` and `-v`.
 * `--engine` sets the process-wide default execution engine, so
 * every bench opts into (or out of) the horizon-batched fast path
 * without code changes; `--parallel` is surfaced through ObsConfig
 * for fleet-stepping benches. Benches register extra flags with
 * addFlag()/addSwitch() before parse(); unknown arguments, and
 * numeric values that are empty or not wholly a number, fail with
 * the full supported-flag list rather than a bare fatal.
 */
class ArgParser
{
  public:
    /** Register `--name=<value>` bound to a string. */
    void addFlag(const std::string &name, std::string *out,
                 const std::string &help)
    {
        flags_.push_back({name, help, out, nullptr, nullptr, nullptr});
    }

    /** Register `--name=<n>` bound to an unsigned integer. */
    void addFlag(const std::string &name, uint64_t *out,
                 const std::string &help)
    {
        flags_.push_back({name, help, nullptr, out, nullptr, nullptr});
    }

    /** Register `--name=<x>` bound to a double. */
    void addFlag(const std::string &name, double *out,
                 const std::string &help)
    {
        flags_.push_back({name, help, nullptr, nullptr, out, nullptr});
    }

    /** Register a valueless `--name` switch bound to a bool. */
    void addSwitch(const std::string &name, bool *out,
                   const std::string &help)
    {
        flags_.push_back({name, help, nullptr, nullptr, nullptr, out});
    }

    /**
     * Parse the command line; fatal (listing every supported flag)
     * on anything unrecognized, and fatal on a repeated flag — a
     * duplicated `--seed=1 --seed=2` is almost always a typo whose
     * silent last-one-wins resolution corrupts sweeps. (`-v` stays
     * repeatable: it is idempotent.) Arms the tracer when --trace is
     * given.
     */
    ObsConfig parse(int argc, char **argv)
    {
        ObsConfig cfg;
        std::set<std::string> seen;
        for (int i = 1; i < argc; ++i) {
            std::string a = argv[i];
            if (a.rfind("--trace=", 0) == 0) {
                markSeen("trace", seen);
                cfg.tracePath = a.substr(8);
            } else if (a.rfind("--metrics=", 0) == 0) {
                markSeen("metrics", seen);
                cfg.metricsPath = a.substr(10);
            } else if (a.rfind("--profile=", 0) == 0) {
                markSeen("profile", seen);
                cfg.profilePath = a.substr(10);
            } else if (a.rfind("--flamegraph=", 0) == 0) {
                markSeen("flamegraph", seen);
                cfg.flamegraphPath = a.substr(13);
            } else if (a.rfind("--seed=", 0) == 0) {
                markSeen("seed", seen);
                cfg.seed = parseUnsigned("seed", a.substr(7));
            } else if (a.rfind("--engine=", 0) == 0) {
                markSeen("engine", seen);
                std::string e = a.substr(9);
                if (e == "step")
                    sim::setDefaultEngine(sim::Engine::Step);
                else if (e == "batch")
                    sim::setDefaultEngine(sim::Engine::Batch);
                else
                    fatal("unknown engine '%s' (step|batch)",
                          e.c_str());
            } else if (a.rfind("--parallel=", 0) == 0) {
                markSeen("parallel", seen);
                cfg.parallel = parseUnsigned("parallel", a.substr(11));
            } else if (a.rfind("--validate=", 0) == 0) {
                markSeen("validate", seen);
                cfg.validateMode = a.substr(11);
            } else if (a.rfind("--osr=", 0) == 0) {
                markSeen("osr", seen);
                cfg.osr = a.substr(6);
                if (cfg.osr != "on" && cfg.osr != "off" &&
                    cfg.osr != "both")
                    fatal("unknown --osr mode '%s' (on|off|both)",
                          cfg.osr.c_str());
            } else if (a == "-v") {
                setLogLevel(LogLevel::Debug);
            } else if (!parseExtra(a, seen)) {
                fatal("unknown argument %s\n%s", a.c_str(),
                      usage().c_str());
            }
        }
        if (!cfg.tracePath.empty())
            obs::tracer().setEnabled(true);
        return cfg;
    }

    /** The supported-flag list, one flag per line. */
    std::string usage() const
    {
        std::string u = "supported flags:\n"
            "  --trace=<path>    write Chrome trace JSON\n"
            "  --metrics=<path>  write metrics snapshot JSON\n"
            "  --profile=<path>  write merged continuous-profile "
            "JSON\n"
            "  --flamegraph=<path> write folded stacks for "
            "flamegraph.pl\n"
            "  --seed=<n>        root seed for stochastic models\n"
            "  --engine=<mode>   execution engine (step|batch)\n"
            "  --parallel=<n>    host worker threads for fleet "
            "benches\n"
            "  --validate=<mode> install-gate mode for fleet benches "
            "(off|ir|diff|paranoid)\n"
            "  --osr=<mode>      on-stack replacement for fleet "
            "benches (on|off|both)\n"
            "  -v                debug logging";
        for (const Flag &f : flags_) {
            std::string spec = "--" + f.name +
                (f.b ? "" : f.s ? "=<value>" : f.d ? "=<x>" : "=<n>");
            u += "\n  " + spec;
            if (spec.size() < 18)
                u += std::string(18 - spec.size(), ' ');
            else
                u += ' ';
            u += f.help;
        }
        return u;
    }

  private:
    struct Flag
    {
        std::string name;
        std::string help;
        std::string *s;
        uint64_t *u;
        double *d;
        bool *b;
    };

    void markSeen(const std::string &name,
                  std::set<std::string> &seen)
    {
        if (!seen.insert(name).second)
            fatal("flag --%s given more than once\n%s", name.c_str(),
                  usage().c_str());
    }

    /** Whole `v` as an unsigned integer (decimal, 0x hex or 0
     *  octal); fatal otherwise — strtoull alone reads "abc" as 0,
     *  "4x" as 4 and wraps "-1". */
    uint64_t parseUnsigned(const std::string &name,
                           const std::string &v) const
    {
        char *end = nullptr;
        errno = 0;
        uint64_t x = std::strtoull(v.c_str(), &end, 0);
        unsigned char first = v.empty() ? 0 : v[0];
        if (!std::isdigit(first) || *end != '\0' || errno == ERANGE)
            fatal("flag --%s wants an unsigned integer, got '%s'\n%s",
                  name.c_str(), v.c_str(), usage().c_str());
        return x;
    }

    /** Whole `v` as a finite double; fatal otherwise. */
    double parseDouble(const std::string &name,
                       const std::string &v) const
    {
        char *end = nullptr;
        double x = std::strtod(v.c_str(), &end);
        unsigned char first = v.empty() ? 0 : v[0];
        if (first == 0 || std::isspace(first) || *end != '\0' ||
            !std::isfinite(x))
            fatal("flag --%s wants a number, got '%s'\n%s",
                  name.c_str(), v.c_str(), usage().c_str());
        return x;
    }

    bool parseExtra(const std::string &a, std::set<std::string> &seen)
    {
        for (const Flag &f : flags_) {
            if (f.b && a == "--" + f.name) {
                markSeen(f.name, seen);
                *f.b = true;
                return true;
            }
            std::string prefix = "--" + f.name + "=";
            if (!f.b && a.rfind(prefix, 0) == 0) {
                markSeen(f.name, seen);
                std::string v = a.substr(prefix.size());
                if (f.s)
                    *f.s = v;
                else if (f.u)
                    *f.u = parseUnsigned(f.name, v);
                else if (f.d)
                    *f.d = parseDouble(f.name, v);
                return true;
            }
        }
        return false;
    }

    std::vector<Flag> flags_;
};

/** Parse the built-in flags only (--trace/--metrics/--seed/-v). */
inline ObsConfig
parseObsArgs(int argc, char **argv)
{
    ArgParser parser;
    return parser.parse(argc, argv);
}

/** Write the requested exports (call at the end of main). */
inline void
exportObs(const ObsConfig &cfg)
{
    if (!cfg.tracePath.empty())
        obs::tracer().writeChromeJson(cfg.tracePath);
    if (!cfg.metricsPath.empty())
        obs::metrics().writeJson(cfg.metricsPath);
}

/** Whole file as a string; "" when unreadable. */
inline std::string
readFileOrEmpty(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return "";
    std::string out;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

/**
 * Short revision stamp for trajectory runs: `git rev-parse` of the
 * working tree, the GITHUB_SHA environment as fallback, "unknown"
 * when neither is available. Only trajectory files carry the stamp —
 * never determinism-diffed exports.
 */
inline std::string
gitStamp()
{
    std::FILE *p =
        ::popen("git rev-parse --short=9 HEAD 2>/dev/null", "r");
    if (p) {
        char buf[64] = {0};
        std::string sha;
        if (std::fgets(buf, sizeof buf, p))
            sha = buf;
        ::pclose(p);
        while (!sha.empty() &&
               (sha.back() == '\n' || sha.back() == '\r'))
            sha.pop_back();
        if (!sha.empty())
            return sha;
    }
    if (const char *env = std::getenv("GITHUB_SHA")) {
        std::string sha(env);
        if (sha.size() > 9)
            sha.resize(9);
        if (!sha.empty())
            return sha;
    }
    return "unknown";
}

/**
 * Append one git-stamped run to a benchmark trajectory file
 * (`{"schema": 1, "benchmark": ..., "runs": [...]}`). A missing,
 * unparsable, or pre-trajectory file starts a fresh trajectory with
 * this run as run 0 — the old snapshot-overwrite behavior, upgraded.
 * `metrics` are the comparable ratio series the trajectory checker
 * gates on; `detail_json` is a serialized JSON object of run-shaped
 * extras kept out of the comparison.
 * @return the run index written.
 */
inline uint64_t
appendTrajectoryRun(const std::string &path,
                    const std::string &benchmark,
                    const std::string &label,
                    const std::map<std::string, double> &metrics,
                    const std::string &detail_json = "{}")
{
    std::string metricsJson = "{";
    bool firstMetric = true;
    for (const auto &[name, value] : metrics) {
        metricsJson +=
            strformat("%s\"%s\": %s", firstMetric ? "" : ", ",
                      name.c_str(),
                      obs::detail::jsonNumber(value).c_str());
        firstMetric = false;
    }
    metricsJson += "}";

    uint64_t runIndex = 0;
    std::string body = readFileOrEmpty(path);
    std::string existing;
    if (!body.empty()) {
        std::string err;
        JsonValue doc = JsonValue::parse(body, &err);
        const JsonValue *runs =
            err.empty() ? doc.find("runs") : nullptr;
        if (runs && runs->isArray() &&
            doc.numberOr("schema", 0) == 1) {
            // Splice before the closing "]\n}" of the runs array —
            // prior runs keep their exact bytes.
            size_t tail = body.rfind("\n]\n}");
            if (tail != std::string::npos) {
                runIndex = runs->items().size();
                if (runIndex > 0)
                    existing = body.substr(0, tail);
            }
        } else {
            warn("trajectory: %s is not a schema-1 trajectory; "
                 "starting fresh",
                 path.c_str());
        }
    }

    std::string run = strformat(
        "  {\"run\": %llu, \"git\": \"%s\", \"label\": \"%s\", "
        "\"metrics\": %s, \"detail\": %s}",
        static_cast<unsigned long long>(runIndex),
        gitStamp().c_str(), label.c_str(), metricsJson.c_str(),
        detail_json.c_str());

    std::string out;
    if (existing.empty()) {
        out = strformat("{\n\"schema\": 1,\n\"benchmark\": \"%s\","
                        "\n\"runs\": [\n",
                        benchmark.c_str()) +
            run + "\n]\n}\n";
    } else {
        out = existing + ",\n" + run + "\n]\n}\n";
    }
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("trajectory: cannot open %s for writing",
              path.c_str());
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    return runIndex;
}

/** Measurement windows for overhead benches, in simulated ms. */
constexpr double kWarmMs = 600.0;
constexpr double kMeasureMs = 1200.0;

/** Retired branches of a batch app running alone under `setup`. */
template <typename Setup>
uint64_t
measureBranches(const std::string &batch, bool protean, Setup &&setup)
{
    workloads::BatchSpec spec = workloads::batchSpec(batch);
    spec.targetStaticLoads = 0; // padding never executes
    ir::Module module = workloads::buildBatch(spec);
    isa::Image image =
        protean ? pcc::compile(module) : pcc::compilePlain(module);

    sim::Machine machine;
    machine.load(image, 0);
    if (obs::tracer().enabled())
        machine.startObsSampling(20.0);
    setup(machine);
    machine.runFor(machine.msToCycles(kWarmMs));
    uint64_t before = machine.core(0).hpm().branches;
    machine.runFor(machine.msToCycles(kMeasureMs));
    machine.exportObsMetrics();
    return machine.core(0).hpm().branches - before;
}

/** Branches with no special setup. */
inline uint64_t
measureBranchesPlain(const std::string &batch, bool protean)
{
    return measureBranches(batch, protean, [](sim::Machine &) {});
}

/** Format a slowdown ratio. */
inline std::string
fmtRatio(double v)
{
    return TextTable::fmt(v, 3);
}

} // namespace bench
} // namespace protean

#endif // PROTEAN_BENCH_COMMON_H
