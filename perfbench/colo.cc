/**
 * @file
 * The colo workload: cells of the Fig. 12-15 grid, run serially.
 *
 * One round is every (service, batch, system) stratum once, in grid
 * order, with the QoS target of each cell drawn from the seed. Drawing
 * whole rounds keeps the mix of cheap and costly cells the same in
 * every run, so runs with different seeds compare.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>

#include "datacenter/experiment.h"
#include "sim/machine.h"
#include "support/random.h"
#include "workloads.h"
#include "workloads/registry.h"

namespace perfbench {

using namespace protean;

namespace {

const char *const kServices[] = {"web-search", "media-streaming",
                                 "graph-analytics"};
const double kTargets[] = {0.90, 0.95, 0.98};
const datacenter::System kSystems[] = {datacenter::System::Pc3d,
                                       datacenter::System::ReQos};
/** Seconds of --seconds per round: 60 cells take 15-20 s on one
 *  core of a shared 2.0 GHz x86-64 Xeon VM. */
constexpr double kSecondsPerRound = 15.0;
/** Set-up repetitions; all but the last run in forked children so
 *  each starts with soloBatchBpc's memo empty. */
constexpr int kSetupReps = 9;

datacenter::ColoConfig
cellConfig(const std::string &service, const std::string &batch,
           double target, datacenter::System system)
{
    datacenter::ColoConfig c;
    c.service = service;
    c.batch = batch;
    c.qosTarget = target;
    c.system = system;
    c.qps = 120.0;
    c.settleMs = 4000.0;
    c.measureMs = 2000.0;
    return c;
}

std::string
cellKey(const datacenter::ColoConfig &c)
{
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s/%s/%.2f/%s", c.service.c_str(),
                  c.batch.c_str(), c.qosTarget,
                  c.system == datacenter::System::Pc3d ? "pc3d" :
                                                         "reqos");
    return buf;
}

std::vector<datacenter::ColoConfig>
drawCells(const RunArgs &args)
{
    int rounds = std::max(
        1, static_cast<int>(std::lround(args.seconds /
                                        kSecondsPerRound)));
    Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + 0xc010);
    std::vector<datacenter::ColoConfig> cells;
    for (int r = 0; r < rounds; ++r)
        for (const char *svc : kServices)
            for (const std::string &b : coloBatches())
                for (datacenter::System sys : kSystems)
                    cells.push_back(cellConfig(
                        svc, b, kTargets[rng.nextBelow(3)], sys));
    return cells;
}

std::string
digestOf(const datacenter::ColoResult &r)
{
    Digest d;
    d.add(r.utilization);
    d.add(r.qos);
    d.add(r.runtimeShare);
    d.add(r.nap);
    d.add(static_cast<uint64_t>(r.fullLoads));
    d.add(static_cast<uint64_t>(r.activeLoads));
    d.add(static_cast<uint64_t>(r.maxDepthLoads));
    return d.hex();
}

double
warmSolo(Spans *spans)
{
    double t0 = wallNow();
    for (const std::string &b : coloBatches()) {
        Spans::Scope s(spans, "datacenter.solo_bpc");
        datacenter::soloBatchBpc(b, sim::MachineConfig{});
    }
    return wallNow() - t0;
}

/** Set-up time of a process whose soloBatchBpc memo is empty. */
double
forkedSetup()
{
    int fds[2];
    if (pipe(fds) != 0)
        return warmSolo(nullptr);
    std::fflush(nullptr);
    pid_t pid = fork();
    if (pid == 0) {
        double s = warmSolo(nullptr);
        ssize_t n = write(fds[1], &s, sizeof s);
        _exit(n == static_cast<ssize_t>(sizeof s) ? 0 : 1);
    }
    close(fds[1]);
    double s = -1.0;
    ssize_t n = pid > 0 ? read(fds[0], &s, sizeof s) : 0;
    close(fds[0]);
    int status = 0;
    if (pid > 0)
        waitpid(pid, &status, 0);
    if (n != static_cast<ssize_t>(sizeof s) || s < 0.0)
        return warmSolo(nullptr);
    return s;
}

struct Ref
{
    std::string digest;
    uint64_t instructions = 0;
};

Ref
refFor(const RefTable &refs, const std::string &key)
{
    auto it = refs.find(key);
    if (it == refs.end() || it->second.size() < 2)
        return {};
    return {it->second[0], std::stoull(it->second[1])};
}

/** Settle, measure and finish, exactly as runColocation does; adds
 *  the cell machine's counters to *counts. */
datacenter::ColoResult
runCellSteps(const datacenter::ColoConfig &cfg, Spans *spans,
             SimCounts *counts)
{
    std::unique_ptr<datacenter::ColoCell> cell;
    {
        Spans::Scope s(spans, "datacenter.cell_ctor");
        cell = std::make_unique<datacenter::ColoCell>(cfg);
    }
    sim::Machine &m = cell->machine();
    {
        Spans::Scope s(spans, "datacenter.settle");
        m.runFor(m.msToCycles(cfg.settleMs));
    }
    cell->beginMeasure();
    {
        Spans::Scope s(spans, "datacenter.measure");
        m.runFor(m.msToCycles(cfg.measureMs));
    }
    datacenter::ColoResult r = cell->finish();
    counts->add(countsOf(m));
    return r;
}

} // namespace

std::vector<std::string>
coloBatches()
{
    return workloads::contentiousBatchNames();
}

Report
runColo(const RunArgs &args, Spans *spans, SimCounts *counts)
{
    Report rep;
    auto setup = [&rep](double s) {
        Item it;
        it.name = "setup";
        it.seconds = s;
        rep.setups.push_back(it);
    };
    if (!spans) {
        for (int i = 0; i + 1 < kSetupReps; ++i)
            setup(forkedSetup());
    }
    setup(warmSolo(spans));

    RefTable refs = readRefs(args.refsDir + "/colo.txt");
    for (const datacenter::ColoConfig &cfg : drawCells(args)) {
        Item it;
        it.name = cellKey(cfg);
        Ref ref = refFor(refs, it.name);
        SimCounts cell;
        double c0 = cpuNow();
        double t0 = wallNow();
        std::string got;
        try {
            if (spans) {
                Spans::Scope s(spans, "datacenter.cell");
                got = digestOf(runCellSteps(cfg, spans, &cell));
            } else {
                got = digestOf(datacenter::runColocation(cfg));
            }
        } catch (const std::exception &e) {
            it.failed = true;
            it.why = std::string("threw: ") + e.what();
        }
        it.seconds = wallNow() - t0;
        it.cpuS = cpuNow() - c0;
        if (!it.failed && got != ref.digest) {
            it.failed = true;
            it.why = "digest " + got + " != reference " +
                (ref.digest.empty() ? "(none)" : ref.digest);
        } else if (!it.failed && spans &&
                   cell.instructions != ref.instructions) {
            it.failed = true;
            it.why = "instruction count differs from reference";
        }
        // Untraced cells expose no counters; a matching digest means
        // the reference count holds.
        rep.instructions += spans ? cell.instructions : ref.instructions;
        if (counts)
            counts->add(cell);
        rep.items.push_back(it);
    }
    return rep;
}

void
writeColoRefs(const std::string &path)
{
    std::ofstream out(path);
    out << "# colo reference: cell digest instructions\n";
    for (const char *svc : kServices)
        for (const std::string &b : coloBatches())
            for (double target : kTargets)
                for (datacenter::System sys : kSystems) {
                    datacenter::ColoConfig cfg =
                        cellConfig(svc, b, target, sys);
                    SimCounts c;
                    std::string d =
                        digestOf(runCellSteps(cfg, nullptr, &c));
                    out << cellKey(cfg) << ' ' << d << ' '
                        << c.instructions << '\n';
                }
}

} // namespace perfbench
