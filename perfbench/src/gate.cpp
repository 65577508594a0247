#include "gate.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/rng.h"

namespace perfbench {

using figlut::serve::RequestState;

namespace {

template <typename... Args>
void
fail(GateReport &report, std::size_t request, const Args &...args)
{
    std::ostringstream line;
    line << "request " << request << ": ";
    (line << ... << args);
    report.problems.push_back(line.str());
    report.failed[request] = 1;
}

} // namespace

bool
bitIdentical(const figlut::MatrixD &a, const figlut::MatrixD &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void
checkTerminal(const std::vector<RequestSpec> &requests,
              const LoopResult &run, GateReport &report)
{
    report.failed.assign(requests.size(), 0);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const RequestRecord &r = run.requests[i];
        if (!r.terminal) {
            fail(report, i, "no terminal state (",
                 figlut::serve::requestStateName(r.state), ")");
        } else if (r.state == RequestState::Finished &&
                   (r.tokenTimesS.size() != requests[i].outputTokens ||
                    r.stats.prefillTokens < requests[i].promptTokens)) {
            fail(report, i, "finished with ", r.tokenTimesS.size(), " of ",
                 requests[i].outputTokens, " tokens and ",
                 r.stats.prefillTokens, " of ", requests[i].promptTokens,
                 " prompt tokens");
        } else if (r.state != RequestState::Finished &&
                   r.state != RequestState::Shed) {
            fail(report, i, "ended ",
                 figlut::serve::requestStateName(r.state));
        }
    }
}

std::vector<std::size_t>
gateSample(const std::vector<RequestSpec> &requests, const LoopResult &run,
           std::size_t tokenBudget, std::uint64_t seed)
{
    std::vector<std::size_t> order, others;
    for (std::size_t i = 0; i < run.requests.size(); ++i) {
        const RequestRecord &r = run.requests[i];
        if (r.state != RequestState::Finished)
            continue;
        (r.evictions > 0 ? order : others).push_back(i);
    }
    figlut::Rng rng(seed);
    for (std::size_t i = others.size(); i > 1; --i)
        std::swap(others[i - 1], others[static_cast<std::size_t>(
                                     rng.uniformInt(0, static_cast<std::int64_t>(i) - 1))]);
    order.insert(order.end(), others.begin(), others.end());

    std::vector<std::size_t> picked;
    std::size_t tokens = 0;
    for (const std::size_t i : order) {
        const std::size_t cost =
            requests[i].promptTokens + requests[i].outputTokens;
        if (!picked.empty() && tokens + cost > tokenBudget)
            continue;
        picked.push_back(i);
        tokens += cost;
    }
    std::sort(picked.begin(), picked.end());
    return picked;
}

void
verifyBatchOne(const figlut::OptConfig &model,
               const figlut::serve::EngineOptions &options,
               const std::vector<RequestSpec> &requests,
               const LoopResult &run,
               const std::vector<std::size_t> &sample, GateReport &report)
{
    if (report.failed.size() != requests.size())
        report.failed.assign(requests.size(), 0);
    figlut::serve::EngineOptions alone = options;
    alone.exec.backend = figlut::LutGemmBackend::Reference;
    alone.exec.threads = 1;
    alone.model.packKeys = false;
    alone.maxBatch = 1;
    alone.maxQueue = 1;
    alone.prefillChunkTokens = 0;
    alone.kvBudgetBytes = 0;
    alone.clock = nullptr;
    auto created = figlut::serve::Engine::create(model, alone);
    if (!created.ok()) {
        report.problems.push_back("reference engine: " +
                                  created.status().message());
        return;
    }
    figlut::serve::Engine &engine = *created.value();
    for (const std::size_t i : sample) {
        const RequestSpec &spec = requests[i];
        figlut::serve::RequestOptions request;
        request.maxTokens = spec.outputTokens;
        request.promptTokens = spec.promptTokens;
        request.seed = spec.seed;
        const auto id = engine.submit(request);
        if (!id.ok()) {
            fail(report, i, "reference submit: ", id.status().message());
            continue;
        }
        while (engine.liveRequests() + engine.queuedRequests() > 0)
            if (!engine.step().ok())
                break;
        const auto snapshot = engine.poll(id.value());
        ++report.checked;
        if (!snapshot.ok() ||
            snapshot.value().state != RequestState::Finished) {
            fail(report, i, "reference run did not finish");
        } else if (!bitIdentical(snapshot.value().hidden,
                                 run.requests[i].hidden)) {
            ++report.mismatches;
            fail(report, i, "final hidden state differs from its batch-1 ",
                 "Reference run");
        }
    }
}

figlut::ReplayResult
replayAtZero(const figlut::OptConfig &model,
             const figlut::serve::EngineOptions &options,
             const std::vector<RequestSpec> &requests)
{
    std::vector<figlut::ReplayRequest> trace;
    trace.reserve(requests.size());
    for (const RequestSpec &r : requests)
        trace.push_back({0.0, r.promptTokens, r.outputTokens, 0.0});
    figlut::ReplayOptions replay;
    replay.maxBatch = options.maxBatch;
    replay.maxQueue = std::max(options.maxQueue, requests.size());
    replay.weightBits = options.model.weightBits;
    replay.includeVector = options.includeVector;
    replay.shards = 1;
    replay.groupSize = options.model.groupSize;
    replay.hasOffset = options.model.useOffset;
    replay.kvBudgetBytes = options.kvBudgetBytes;
    replay.kvBlockTokens = options.kvBlockTokens;
    replay.prefillChunkTokens = options.prefillChunkTokens;
    replay.policy = options.policy;
    figlut::HwConfig hw;
    hw.engine = figlut::EngineKind::FIGLUT_I;
    return figlut::replayTrace(model, hw, replay, trace);
}

void
checkReplay(const figlut::ReplayResult &replay, const LoopResult &run,
            GateReport &report)
{
    if (replay.steps != run.workSteps() ||
        replay.prefillTokens != run.prefillTokens() ||
        replay.decodeTokens != run.decodeTokens()) {
        std::ostringstream line;
        line << "replay at t=0 ran " << replay.steps << " steps, "
             << replay.prefillTokens << " prefill and "
             << replay.decodeTokens << " decode tokens; the engine ran "
             << run.workSteps() << ", " << run.prefillTokens() << " and "
             << run.decodeTokens();
        report.problems.push_back(line.str());
    }
}

} // namespace perfbench
