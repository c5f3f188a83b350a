/**
 * @file
 * Shared continuous-profiling report helpers for the fleet benches.
 *
 * Fleet benches that run with `telemetry.profiling` on use these to
 * (1) honor the common `--profile=<path>` / `--flamegraph=<path>`
 * flags against the hub's fleet-merged profile and (2) print a
 * one-line summary of it.
 */

#ifndef PROTEAN_BENCH_PROFILE_REPORT_H
#define PROTEAN_BENCH_PROFILE_REPORT_H

#include "common.h"
#include "fleet/telemetry.h"

namespace protean {
namespace bench {

/** Write the fleet-merged profile as requested on the command line
 *  (no-op for paths not given). */
inline void
exportFleetProfile(const fleet::TelemetryHub &hub,
                   const ObsConfig &cfg)
{
    if (!cfg.profilePath.empty())
        hub.fleetProfile().writeJson(cfg.profilePath);
    if (!cfg.flamegraphPath.empty())
        hub.fleetProfile().writeFolded(cfg.flamegraphPath);
}

/** One-line summary of the fleet-merged profile: sample and bucket
 *  counts and the hottest function. */
inline void
printProfileSummary(const fleet::TelemetryHub &hub)
{
    const obs::Profile &prof = hub.fleetProfile();
    std::printf("profile: %llu samples in %zu (func, mask, phase) "
                "buckets; hottest %s\n",
                static_cast<unsigned long long>(
                    prof.totalSamples()),
                prof.entries().size(),
                prof.nameOf(prof.hottestFunction()).c_str());
}

} // namespace bench
} // namespace protean

#endif // PROTEAN_BENCH_PROFILE_REPORT_H
