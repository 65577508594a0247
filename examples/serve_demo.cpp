/**
 * @file
 * Request-level serving demo: a serve::Engine admitting, batching, and
 * retiring independent requests over one shared quantized model —
 * continuous batching with ragged token budgets, recoverable
 * (Status-based) rejection of over-capacity traffic, and per-request
 * stats (including why each request ended) at retirement.
 *
 * The second half re-runs the traffic against a KV-budget-governed
 * engine: a paged KV arena too small for the whole batch, so the
 * degradation policy load-sheds the newest requests mid-flight and
 * every non-completed request retires with a definite terminal
 * status instead of an abort.
 *
 * Build & run:  ./build/examples/serve_demo [requests] [maxBatch]
 * Defaults: 6 requests into a 3-slot batch, so traffic queues, joins
 * mid-flight as budgets retire, and one submit is load-shed.
 */

#include <cstdlib>
#include <iostream>

#include "figlut/figlut.h"

using namespace figlut;

int
main(int argc, char **argv)
{
    const std::size_t requests =
        argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 6;
    const std::size_t maxBatch =
        argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 3;

    std::cout << "FIGLUT serve demo\n=================\n\n";

    // 1. One shared model: quantize + pack once, serve everyone.
    OptConfig tiny;
    tiny.name = "OPT-tiny";
    tiny.hidden = 128;
    tiny.layers = 2;
    tiny.heads = 4;
    tiny.ffn = 512;

    serve::EngineOptions opts;
    opts.model.weightBits = 3;
    opts.model.bcqIterations = 1;
    opts.maxBatch = maxBatch;
    // Queue sized one short of the traffic, so the last submit is
    // load-shed with a ResourceExhausted status (not a crash).
    opts.maxQueue =
        requests > maxBatch + 1 ? requests - maxBatch - 1 : 0;

    auto created = serve::Engine::create(tiny, opts);
    if (!created.ok()) {
        std::cerr << "engine rejected: " << created.status().toString()
                  << "\n";
        return 1;
    }
    serve::Engine &engine = *created.value();
    std::cout << "engine over " << tiny.name << ": "
              << engine.model().storageBytes() / 1024
              << " KiB quantized weights + "
              << engine.model().packedKeyBytes() / 1024
              << " KiB packed keys, shared by every request; maxBatch "
              << opts.maxBatch << "\n\n";

    // 2. Submit independent requests with ragged token budgets. The
    //    first maxBatch go live immediately, the rest queue.
    std::vector<serve::RequestId> ids;
    for (std::size_t i = 0; i < requests; ++i) {
        serve::RequestOptions req;
        req.maxTokens = 2 + i % 4; // ragged budgets: 2..5 tokens
        req.seed = 42 + i;
        auto id = engine.submit(req);
        if (!id.ok()) {
            std::cout << "request " << i
                      << " rejected: " << id.status().toString() << "\n";
            continue;
        }
        ids.push_back(id.value());
    }
    std::cout << ids.size() << " requests submitted: "
              << engine.liveRequests() << " live, "
              << engine.queuedRequests() << " queued\n";

    // A misconfigured client is rejected with a Status, not a crash.
    {
        serve::EngineOptions bad = opts;
        bad.exec.threads = kMaxLutGemmThreads + 1;
        const auto r = serve::Engine::create(tiny, bad);
        std::cout << "bad client config -> " << r.status().toString()
                  << "\n\n";
    }

    // 3. The serving loop: one fused decode step per turn. Every live
    //    request's hidden column rides the same per-layer GEMM call.
    std::size_t step = 0;
    while (engine.liveRequests() > 0 || engine.queuedRequests() > 0) {
        const auto tasks = engine.workloadTasks();
        auto stats = engine.step();
        if (!stats.ok()) {
            std::cerr << "step failed: " << stats.status().toString()
                      << "\n";
            return 1;
        }
        ++step;
        std::cout << "step " << step << ": " << stats.value().liveRequests
                  << " live (" << stats.value().admitted << " admitted, "
                  << stats.value().retired << " retired), "
                  << stats.value().gemmCalls << " fused GEMMs over "
                  << tasks.size() << " scored kernels, "
                  << stats.value().counters.lutReads << " LUT reads\n";
    }

    // 4. Retirement report: every request kept its own KV history and
    //    an exact share of the fused kernel counters. Wait and decode
    //    are separate clocks — "wait (ms)" is submit until the first
    //    decoding step began (queue + admitted-but-idle time), "ttft
    //    (ms)" is submit until the first token landed, and "decode
    //    (ms)" is only the request's share of fused GEMM steps.
    TextTable table({"request", "state", "why", "tokens", "kv len",
                     "queued steps", "LUT reads", "wait (ms)",
                     "ttft (ms)", "decode (ms)"});
    for (const auto id : ids) {
        const auto snap = engine.poll(id);
        if (!snap.ok())
            continue;
        const auto &s = snap.value();
        table.addRow({std::to_string(s.id),
                      serve::requestStateName(s.state),
                      s.terminal.ok()
                          ? "completed"
                          : statusCodeName(s.terminal.code()),
                      std::to_string(s.stats.tokensDecoded),
                      std::to_string(s.kvLength),
                      std::to_string(s.stats.queuedSteps),
                      std::to_string(s.stats.counters.lutReads),
                      TextTable::num(s.stats.queueSeconds * 1e3, 2),
                      TextTable::num(s.stats.ttftSeconds * 1e3, 2),
                      TextTable::num(s.stats.decodeSeconds * 1e3, 2)});
    }
    std::cout << "\n" << table.render();
    std::cout << "\n" << step << " fused steps served "
              << ids.size() << " requests; a lock-step batch would "
                 "have run every sequence to the longest budget.\n";

    // 5. Memory-governed admission: the same traffic against an arena
    //    whose byte budget holds roughly one request's KV, so the
    //    budget — not a crash — decides who decodes. Every dropped
    //    request carries a definite terminal status.
    const std::size_t blockTokens = 4;
    const std::size_t blockBytes =
        blockTokens * 2 * tiny.hidden * sizeof(double);
    serve::EngineOptions tight = opts;
    tight.kvBlockTokens = blockTokens;
    // Two blocks per layer: enough for one ~8-token context per
    // layer, far short of the whole batch.
    tight.kvBudgetBytes = 2 * tiny.layers * blockBytes;
    tight.policy = serve::DegradationPolicy::ShedNewest;

    auto governed = serve::Engine::create(tiny, tight);
    if (!governed.ok()) {
        std::cerr << "governed engine rejected: "
                  << governed.status().toString() << "\n";
        return 1;
    }
    serve::Engine &small = *governed.value();
    std::cout << "\nKV-governed engine: budget "
              << tight.kvBudgetBytes / 1024 << " KiB ("
              << small.arena().budgetBlocks() << " blocks of "
              << blockTokens << " tokens), policy "
              << serve::degradationPolicyName(tight.policy) << "\n";

    std::vector<serve::RequestId> governedIds;
    for (std::size_t i = 0; i < requests; ++i) {
        serve::RequestOptions req;
        req.maxTokens = 2 + i % 4;
        req.promptTokens = 4;
        req.seed = 42 + i;
        const auto id = small.submit(req);
        if (id.ok())
            governedIds.push_back(id.value());
        else
            std::cout << "request " << i << " rejected at submit: "
                      << id.status().toString() << "\n";
    }
    while (small.liveRequests() > 0 || small.queuedRequests() > 0) {
        const auto stats = small.step();
        if (!stats.ok()) {
            std::cerr << "governed step failed: "
                      << stats.status().toString() << "\n";
            return 1;
        }
        for (const auto id : stats.value().shedIds)
            std::cout << "  step shed request " << id
                      << " (KV budget exhausted)\n";
    }
    TextTable outcomeTable({"request", "state", "why", "tokens"});
    for (const auto id : governedIds) {
        const auto snap = small.poll(id);
        if (!snap.ok())
            continue;
        const auto &s = snap.value();
        outcomeTable.addRow(
            {std::to_string(s.id), serve::requestStateName(s.state),
             s.terminal.ok() ? "completed"
                             : statusCodeName(s.terminal.code()),
             std::to_string(s.stats.tokensDecoded)});
    }
    std::cout << "\n" << outcomeTable.render();
    std::cout << "\npeak arena usage "
              << small.arena().peakBytes() / 1024 << " KiB of "
              << tight.kvBudgetBytes / 1024
              << " KiB budget; survivors decoded to their budgets, "
                 "everyone else ended with an explicit status.\n";
    return 0;
}
