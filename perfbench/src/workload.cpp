#include "workload.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace perfbench {

using figlut::serve::DegradationPolicy;

namespace {

/** Requests per stratified block of the generator. */
constexpr std::size_t kStratumBlock = 16;

/** FNV-1a, so a workload's stream does not depend on std::hash. */
std::uint64_t
nameHash(const std::string &name)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : name)
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    return h;
}

// Rates are calibrated on a 4-vCPU x86-64 VM (AVX2) at 1 GEMM worker;
// README.md records why each mix was chosen and what it stresses.
std::vector<WorkloadSpec>
builtinWorkloads()
{
    WorkloadSpec chat;
    chat.name = "chat";
    chat.requestsPerSecond = 6.0;
    chat.clients = 16;
    chat.maxBatch = 8;
    chat.promptMin = 16;
    chat.promptMax = 64;
    chat.outputMin = 32;
    chat.outputMax = 128;
    chat.prefillChunkTokens = 64;

    WorkloadSpec longdoc;
    longdoc.name = "longdoc";
    longdoc.requestsPerSecond = 0.8;
    longdoc.clients = 4;
    longdoc.maxBatch = 2;
    longdoc.promptMin = 256;
    longdoc.promptMax = 1024;
    longdoc.outputMin = 8;
    longdoc.outputMax = 24;
    longdoc.prefillChunkTokens = 128;

    WorkloadSpec kv;
    kv.name = "kv-pressure";
    kv.requestsPerSecond = 5.5;
    kv.clients = 16;
    kv.maxBatch = 8;
    kv.promptMin = 16;
    kv.promptMax = 64;
    kv.outputMin = 48;
    kv.outputMax = 160;
    kv.prefillChunkTokens = 64;
    kv.kvBudgetFraction = 0.59;
    kv.policy = DegradationPolicy::EvictLongestIdle;

    return {chat, longdoc, kv};
}

} // namespace

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const WorkloadSpec &spec : builtinWorkloads())
        names.push_back(spec.name);
    return names;
}

bool
workloadByName(const std::string &name, WorkloadSpec *out)
{
    for (const WorkloadSpec &spec : builtinWorkloads()) {
        if (spec.name == name) {
            *out = spec;
            return true;
        }
    }
    return false;
}

figlut::OptConfig
benchModel()
{
    figlut::OptConfig model;
    model.name = "OPT-bench";
    model.hidden = 128;
    model.layers = 2;
    model.heads = 4;
    model.ffn = 512;
    return model;
}

std::size_t
requestCount(const WorkloadSpec &spec, double seconds)
{
    const auto count =
        static_cast<std::size_t>(std::llround(seconds * spec.requestsPerSecond));
    return std::max(count, spec.minRequests);
}

std::vector<RequestSpec>
generateRequests(const WorkloadSpec &spec, std::uint64_t seed,
                 std::size_t count)
{
    figlut::Rng rng(seed ^ nameHash(spec.name));
    // One value per stratum of [lo, hi], in seeded order, with a seeded
    // offset inside each stratum.
    auto stratified = [&rng](std::size_t lo, std::size_t hi) {
        std::vector<std::size_t> order(kStratumBlock);
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        for (std::size_t i = order.size() - 1; i > 0; --i)
            std::swap(order[i], order[static_cast<std::size_t>(
                                    rng.uniformInt(0, static_cast<std::int64_t>(i)))]);
        const double width = static_cast<double>(hi - lo + 1) /
                             static_cast<double>(kStratumBlock);
        std::vector<std::size_t> values;
        for (const std::size_t stratum : order) {
            const double at =
                (static_cast<double>(stratum) + rng.uniform()) * width;
            values.push_back(std::min(hi, lo + static_cast<std::size_t>(at)));
        }
        return values;
    };
    std::vector<RequestSpec> requests;
    requests.reserve(count + kStratumBlock);
    while (requests.size() < count) {
        const auto prompts = stratified(spec.promptMin, spec.promptMax);
        const auto outputs = stratified(spec.outputMin, spec.outputMax);
        for (std::size_t i = 0; i < kStratumBlock; ++i)
            requests.push_back({prompts[i], outputs[i], rng.next()});
    }
    requests.resize(count);
    return requests;
}

figlut::serve::EngineOptions
engineOptions(const WorkloadSpec &spec, std::size_t requests,
              figlut::LutGemmBackend backend, int threads)
{
    figlut::serve::EngineOptions options;
    options.model.weightBits = 4;
    options.model.bcqIterations = 1;
    options.exec.backend = backend;
    options.exec.threads = threads;
    options.exec.shards = 1;
    options.maxBatch = spec.maxBatch;
    options.maxQueue = std::max(spec.clients, requests);
    options.prefillChunkTokens = spec.prefillChunkTokens;
    options.policy = spec.policy;
    options.retainFinishedKv = false;
    if (spec.kvBudgetFraction > 0.0) {
        const figlut::OptConfig model = benchModel();
        const std::size_t blockTokens = options.kvBlockTokens;
        const std::size_t blockBytes =
            blockTokens * 2 * model.hidden * sizeof(double);
        const std::size_t worstCase =
            spec.maxBatch *
            ((spec.promptMax + spec.outputMax + blockTokens - 1) /
             blockTokens) *
            model.layers;
        const auto blocks = static_cast<std::size_t>(std::llround(
            spec.kvBudgetFraction * static_cast<double>(worstCase)));
        options.kvBudgetBytes = std::max(blocks, model.layers) * blockBytes;
    }
    return options;
}

} // namespace perfbench
