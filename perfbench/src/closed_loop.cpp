#include "closed_loop.h"

#include <unordered_map>

#include "host.h"

namespace perfbench {

using figlut::serve::RequestId;

std::size_t
LoopResult::workSteps() const
{
    std::size_t n = 0;
    for (const StepRecord &s : steps)
        n += s.work() ? 1 : 0;
    return n;
}

std::size_t
LoopResult::prefillTokens() const
{
    std::size_t n = 0;
    for (const StepRecord &s : steps)
        n += s.prefillTokens;
    return n;
}

std::size_t
LoopResult::decodeTokens() const
{
    std::size_t n = 0;
    for (const StepRecord &s : steps)
        n += s.decodeTokens;
    return n;
}

figlut::LutGemmCounters
LoopResult::counters() const
{
    figlut::LutGemmCounters total;
    for (const StepRecord &s : steps) {
        total.lutGenerations += s.counters.lutGenerations;
        total.generatorAdds += s.counters.generatorAdds;
        total.lutReads += s.counters.lutReads;
        total.racAccumulates += s.counters.racAccumulates;
        total.scaleMuls += s.counters.scaleMuls;
        total.offsetOps += s.counters.offsetOps;
    }
    return total;
}

LoopResult
runClosedLoop(figlut::serve::Engine &engine,
              const figlut::serve::EngineClock &clock,
              const std::vector<RequestSpec> &requests, std::size_t clients,
              LoopObserver *observer)
{
    LoopObserver none;
    LoopObserver &obs = observer != nullptr ? *observer : none;

    LoopResult run;
    run.requests.resize(requests.size());
    std::unordered_map<RequestId, std::size_t> indexOf;
    std::size_t next = 0;

    // A client's next request goes in right after its previous one
    // ended; a rejected submit is an operation failure and the client
    // moves on to the request after it.
    auto submitNext = [&]() {
        while (next < requests.size()) {
            const std::size_t i = next++;
            const RequestSpec &spec = requests[i];
            figlut::serve::RequestOptions options;
            options.maxTokens = spec.outputTokens;
            options.promptTokens = spec.promptTokens;
            options.seed = spec.seed;
            const double t0 = clock.now();
            const auto id = engine.submit(options);
            const double t1 = clock.now();
            run.submitUs.push_back((t1 - t0) * 1e6);
            if (!id.ok()) {
                ++run.errors;
                continue;
            }
            run.requests[i].id = id.value();
            run.requests[i].submitS = t0;
            indexOf[id.value()] = i;
            obs.onSubmit(id.value(), t0, t1);
            return;
        }
    };

    auto pollTerminal = [&](std::size_t i) {
        RequestRecord &record = run.requests[i];
        const double t0 = clock.now();
        const auto snapshot = engine.poll(record.id);
        const double t1 = clock.now();
        run.pollUs.push_back((t1 - t0) * 1e6);
        obs.onPoll(record.id, t0, t1);
        if (!snapshot.ok()) {
            ++run.errors;
            return;
        }
        record.state = snapshot.value().state;
        record.terminal = figlut::serve::requestStateTerminal(record.state);
        record.stats = snapshot.value().stats;
        record.hidden = snapshot.value().hidden;
    };

    run.startS = clock.now();
    const double cpu0 = processCpuSeconds();
    for (std::size_t c = 0; c < clients; ++c)
        submitNext();

    std::vector<std::size_t> ended;
    while (engine.liveRequests() + engine.queuedRequests() > 0) {
        const double c0 = processCpuSeconds();
        const double t0 = clock.now();
        const auto result = engine.step();
        const double t1 = clock.now();
        const double c1 = processCpuSeconds();
        if (!result.ok()) {
            ++run.errors;
            break;
        }
        const figlut::serve::StepStats &stats = result.value();
        StepRecord step;
        step.startS = t0;
        step.endS = t1;
        step.cpuS = c1 - c0;
        step.prefillTokens = stats.prefillTokens;
        step.decodeTokens = stats.decodeTokens;
        step.evicted = stats.evictedIds.size();
        step.shed = stats.shedIds.size();
        step.kvBlocksInUse = stats.kvBlocksInUse;
        step.counters = stats.counters;
        run.steps.push_back(step);
        obs.onStep(stats, t0, t1);

        // Mirror the engine's retirement rule (a life's token count
        // reaching the budget) so each request is polled exactly once,
        // when it ends.
        ended.clear();
        for (const RequestId id : stats.evictedIds) {
            RequestRecord &r = run.requests[indexOf.at(id)];
            r.tokenTimesS.clear();
            r.lifeTokens = 0;
            ++r.evictions;
        }
        for (const RequestId id : stats.decodedIds) {
            const std::size_t i = indexOf.at(id);
            RequestRecord &r = run.requests[i];
            r.tokenTimesS.push_back(t1);
            if (++r.lifeTokens == requests[i].outputTokens)
                ended.push_back(i);
        }
        for (const RequestId id : stats.shedIds) {
            const std::size_t i = indexOf.at(id);
            run.requests[i].shed = true;
            ended.push_back(i);
        }
        for (const RequestId id : stats.deadlineIds)
            ended.push_back(indexOf.at(id));
        for (const std::size_t i : ended) {
            pollTerminal(i);
            submitNext();
        }
    }
    run.endS = clock.now();
    run.cpuS = processCpuSeconds() - cpu0;
    return run;
}

} // namespace perfbench
