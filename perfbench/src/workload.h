/**
 * @file
 * The benchmark's workloads: one fixed model, three closed-loop
 * traffic mixes, and the seeded generator of their request lists.
 *
 * A workload is a request list (prompt length, output length, input
 * seed per request) plus the engine knobs it runs under. The list is a
 * pure function of (workload, seed, length); the engine only ever sees
 * the generated requests. A run's length in requests follows from the
 * seconds it should measure and the workload's nominal completion rate,
 * never from a clock, so the batch schedule of a run does not depend on
 * host speed.
 */

#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include <cstdint>
#include <string>
#include <vector>

#include "model/opt_family.h"
#include "serve/engine.h"

namespace perfbench {

/** One request of a workload, in submission order. */
struct RequestSpec
{
    std::size_t promptTokens = 0;
    std::size_t outputTokens = 1;
    std::uint64_t seed = 0;
};

/** A closed-loop traffic mix and the engine knobs it runs under. */
struct WorkloadSpec
{
    std::string name;
    /** Requests one second of measurement covers on the reference
     *  host (4 vCPUs, 1 GEMM worker): sizes a run from --seconds. */
    double requestsPerSecond = 1.0;
    /** Fewest requests in a run (keeps every p50 supported). */
    std::size_t minRequests = 20;
    /** Closed-loop clients: each submits its next request when its
     *  previous one reaches a terminal state. */
    std::size_t clients = 0;
    std::size_t maxBatch = 0;
    std::size_t promptMin = 0, promptMax = 0;
    std::size_t outputMin = 1, outputMax = 1;
    /** EngineOptions::prefillChunkTokens. */
    std::size_t prefillChunkTokens = 0;
    /** KV budget as a share of the worst-case demand: maxBatch
     *  requests at the longest prompt plus output (0 = unbounded). */
    double kvBudgetFraction = 0.0;
    figlut::serve::DegradationPolicy policy =
        figlut::serve::DegradationPolicy::ShedNewest;
};

/** Names of the built-in workloads ("chat", "longdoc", "kv-pressure"). */
std::vector<std::string> workloadNames();

/** The built-in workload of that name; false when unknown. */
bool workloadByName(const std::string &name, WorkloadSpec *out);

/** The model every workload serves: 128 hidden, 2 layers, 4 heads. */
figlut::OptConfig benchModel();

/** Requests in a run meant to measure about `seconds`. */
std::size_t requestCount(const WorkloadSpec &spec, double seconds);

/**
 * The first `count` requests of the workload's stream for one seed.
 * Lengths are stratified in blocks of 16 requests: each block holds one
 * prompt length from each sixteenth of the prompt range and one output
 * length from each sixteenth of the output range, in seeded order and
 * at seeded offsets, so every run covers the ranges evenly and the seed
 * changes the traffic, not its mix. Per-request input seeds come from
 * the same stream. Deterministic in (spec, seed), and a longer list
 * extends a shorter one.
 */
std::vector<RequestSpec> generateRequests(const WorkloadSpec &spec,
                                          std::uint64_t seed,
                                          std::size_t count);

/**
 * Engine options of a workload: explicit backend and GEMM worker
 * count, one shard, the workload's batch/chunk/budget knobs, and a
 * queue that holds every request of the list.
 */
figlut::serve::EngineOptions
engineOptions(const WorkloadSpec &spec, std::size_t requests,
              figlut::LutGemmBackend backend, int threads);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
