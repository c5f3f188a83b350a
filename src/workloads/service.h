/**
 * @file
 * Latency-sensitive service workload generator.
 *
 * Models the CloudSuite-style webservices (web-search,
 * media-streaming, graph-analytics) and latency-sensitive PARSEC
 * workloads the paper co-runs against batch applications. The
 * service's main loop polls a request counter that an external
 * ServiceDriver (workloads/driver.h) increments according to a QPS
 * trace. Pending requests are processed by walking a working set
 * whose residency in the shared LLC determines the service's
 * sensitivity to cache contention; with no pending work the service
 * spins in a compute-only idle loop, making it insensitive at low
 * load — the behavior Figure 16 of the paper depends on.
 */

#ifndef PROTEAN_WORKLOADS_SERVICE_H
#define PROTEAN_WORKLOADS_SERVICE_H

#include <cstdint>
#include <string>

#include "ir/module.h"

namespace protean {
namespace workloads {

/** Parameters of one generated service program. */
struct ServiceSpec
{
    std::string name = "service";
    /** Request working set (power of two). */
    uint64_t wsBytes = 1ULL << 16;
    /** Loads per inner iteration of request processing. */
    uint32_t loadsPerIter = 4;
    /** Passes over the walked segment per request (reuse factor). */
    uint32_t repsPerRequest = 3;
    /** ALU operations per load. */
    uint32_t aluPerLoad = 2;
    /** Iterations of the compute-only idle spin per poll. */
    uint32_t idleSpinIters = 300;
    /** Stream fresh data per request instead of re-walking the same
     *  working set (media-streaming behavior). */
    bool stream = false;
};

/** Names of the globals the ServiceDriver needs to locate. */
constexpr const char *kServiceReqGlobal = "svc_req";
constexpr const char *kServiceDoneGlobal = "svc_done";

/** Generate the service program (entry "main"). */
ir::Module buildService(const ServiceSpec &spec);

} // namespace workloads
} // namespace protean

#endif // PROTEAN_WORKLOADS_SERVICE_H
