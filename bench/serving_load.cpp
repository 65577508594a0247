/**
 * @file
 * Trace-driven serving load harness: seeded Poisson/bursty arrival
 * traces with prompt/output-length distributions, driven through a
 * real serve::Engine (submitter thread + step loop) AND replayed on
 * sim::Accelerator in virtual time — TTFT and inter-token latency
 * p50/p95/p99, queue depth, shed/evict/deadline-miss rates, and
 * goodput under a configurable SLO, measured and simulated side by
 * side per scenario.
 *
 * The `overload` scenario is the memory-governance stress mode: the
 * harness computes the trace's peak KV block demand and sweeps the
 * engine's kvBudgetBytes through {100%, 60%, 35%} of it (records
 * overload-b100/-b60/-b35), reporting how the degradation policy
 * (load-shed or evict-and-requeue), deadlines, and injected
 * allocation faults reshape the outcome mix. Both drivers run the
 * same budget/policy/injector, so the shed/evict/deadline schedules
 * stay measured-vs-simulated comparable.
 *
 * The `longdoc-ttft` pseudo-scenario is the honest-TTFT drill: three
 * runs at pinned prompt lengths (longdoc-p16/-p64/-p160) whose
 * records must show median TTFT strictly above both the queue wait
 * and the per-token latency, growing with prompt length, in the
 * measured and simulated columns alike (check_bench_json.py enforces
 * it). Pairs with --prefill-chunk, which bounds the prompt tokens
 * one fused step may compute (EngineOptions::prefillChunkTokens,
 * forwarded to the replay).
 *
 * Outputs:
 *  - console tables (one row per scenario per source),
 *  - --json <path>: BENCH_serving_load-style records via bench_util.h
 *    (one record per scenario, measured metrics + sim_* counterparts
 *    + config echoes; schema-checked by scripts/check_bench_json.py),
 *  - --csv <path>: per-request log (measured + simulated latencies),
 *  - --queue-csv <path>: per-step queue-depth/duration time series.
 *
 * Run `serving_load --help` for every flag. `--smoke` is the CI
 * preset: a short deterministic trace (fixed seed) over all three
 * built-in scenarios on a tiny model, ~seconds of wall clock.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "figlut/figlut.h"
#include "load/driver.h"
#include "load/latency.h"
#include "load/trace.h"

using namespace figlut;
using namespace figlut::bench;

namespace {

struct CliOptions
{
    std::string scenario = "all";
    std::size_t requests = 48;
    double ratePerS = 0.0; ///< 0 = scenario default
    std::uint64_t seed = 42;
    std::size_t maxBatch = 8;
    std::size_t maxQueue = 16;
    std::size_t hidden = 128;
    std::size_t layers = 2;
    std::size_t heads = 4;
    std::size_t ffn = 512;
    int weightBits = 4;
    int threads = 0;
    /** Shard counts to sweep (each value one job per scenario; 0 =
     *  auto: FIGLUT_SHARDS, else unsharded). */
    std::vector<int> shards = {0};
    LutGemmBackend backend = LutGemmBackend::Simd;
    double kvBudgetMb = 0.0; ///< 0 = unbounded (non-overload runs)
    std::size_t blockTokens = 16;
    std::size_t prefillChunk = 0; ///< per-step prefill budget (0 = all)
    std::string policy = "shed-newest";
    double deadlineMs = 0.0; ///< 0 = no deadline
    std::size_t faultEvery = 0; ///< 0 = no injected faults
    SloSpec slo;
    std::string jsonPath = "bench_out/BENCH_serving_load.json";
    std::string csvName = "serving_load_requests.csv";
    std::string queueCsvName = "serving_load_queue.csv";
};

void
printUsage()
{
    std::cout
        << "serving_load: trace-driven serving latency harness\n"
           "  --scenario NAME   poisson-short-chat | bursty-short-chat"
           " | mixed-long-doc | overload | longdoc-ttft | all\n"
           "                    (default all; overload = KV-budget "
           "pressure sweep, longdoc-ttft =\n"
           "                    pinned-prompt-length prefill sweep; "
           "neither is in all)\n"
           "  --requests N      arrivals per scenario (default 48)\n"
           "  --rate R          mean arrivals/s (0 = scenario default)\n"
           "  --seed S          trace seed (default 42)\n"
           "  --max-batch N     engine fused-batch bound (default 8)\n"
           "  --max-queue N     engine wait-queue bound (default 16)\n"
           "  --hidden/--layers/--heads/--ffn  model shape "
           "(default 128/2/4/512)\n"
           "  --weight-bits Q   quantized weight width (default 4)\n"
           "  --threads T       GEMM workers (0 = hw concurrency)\n"
           "  --shards LIST     comma-separated worker-group counts to "
           "sweep, e.g. 1,2,4\n"
           "                    (default 0 = auto: FIGLUT_SHARDS, else "
           "unsharded; counts > 1\n"
           "                    suffix the record name with -s<N>)\n"
           "  --backend B       reference | simd (default simd)\n"
           "  --kv-budget-mb X  KV arena byte budget in MiB (0 = "
           "unbounded; overload\n"
           "                    sweeps its own computed budgets)\n"
           "  --block-tokens B  KV arena paging granularity "
           "(default 16)\n"
           "  --prefill-chunk N per-step prompt-prefill token budget "
           "across the batch\n"
           "                    (0 = whole remaining prompts in one "
           "step)\n"
           "  --policy P        shed-newest | evict-idle "
           "(default shed-newest)\n"
           "  --deadline-ms X   per-request deadline (0 = none)\n"
           "  --fault-every N   fail every Nth KV block allocation "
           "(0 = none)\n"
           "  --slo-ttft-ms X   TTFT bound of the goodput SLO "
           "(default 200)\n"
           "  --slo-itl-ms X    mean-ITL bound of the goodput SLO "
           "(default 50)\n"
           "  --json PATH       bench-record output "
           "(default bench_out/BENCH_serving_load.json)\n"
           "  --csv NAME        per-request log under bench_out/ "
           "(default serving_load_requests.csv)\n"
           "  --queue-csv NAME  per-step queue series under bench_out/"
           " (default serving_load_queue.csv)\n"
           "  --smoke           CI preset: tiny model, 10 requests per"
           " scenario, high rate\n";
}

bool
parseArgs(int argc, char **argv, CliOptions &cli)
{
    const auto needValue = [&](int i) {
        if (i + 1 < argc)
            return true;
        std::cerr << "missing value for " << argv[i] << "\n";
        return false;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--help" || flag == "-h") {
            printUsage();
            std::exit(0);
        } else if (flag == "--smoke") {
            cli.requests = 10;
            cli.ratePerS = 200.0;
            cli.hidden = 64;
            cli.layers = 1;
            cli.heads = 2;
            cli.ffn = 256;
            cli.maxBatch = 4;
            cli.maxQueue = 8;
            cli.weightBits = 2;
        } else if (!needValue(i)) {
            return false;
        } else if (flag == "--scenario") {
            cli.scenario = argv[++i];
        } else if (flag == "--requests") {
            cli.requests =
                static_cast<std::size_t>(std::atoll(argv[++i]));
        } else if (flag == "--rate") {
            cli.ratePerS = std::atof(argv[++i]);
        } else if (flag == "--seed") {
            cli.seed =
                static_cast<std::uint64_t>(std::atoll(argv[++i]));
        } else if (flag == "--max-batch") {
            cli.maxBatch =
                static_cast<std::size_t>(std::atoll(argv[++i]));
        } else if (flag == "--max-queue") {
            cli.maxQueue =
                static_cast<std::size_t>(std::atoll(argv[++i]));
        } else if (flag == "--hidden") {
            cli.hidden =
                static_cast<std::size_t>(std::atoll(argv[++i]));
        } else if (flag == "--layers") {
            cli.layers =
                static_cast<std::size_t>(std::atoll(argv[++i]));
        } else if (flag == "--heads") {
            cli.heads =
                static_cast<std::size_t>(std::atoll(argv[++i]));
        } else if (flag == "--ffn") {
            cli.ffn = static_cast<std::size_t>(std::atoll(argv[++i]));
        } else if (flag == "--weight-bits") {
            cli.weightBits = std::atoi(argv[++i]);
        } else if (flag == "--threads") {
            cli.threads = std::atoi(argv[++i]);
        } else if (flag == "--shards") {
            cli.shards.clear();
            std::string list = argv[++i];
            for (std::size_t pos = 0; pos <= list.size();) {
                std::size_t comma = list.find(',', pos);
                if (comma == std::string::npos)
                    comma = list.size();
                const std::string item = list.substr(pos, comma - pos);
                if (item.empty() || item.find_first_not_of("0123456789") !=
                                        std::string::npos) {
                    std::cerr << "bad --shards entry: '" << item
                              << "' (want e.g. 1,2,4)\n";
                    return false;
                }
                cli.shards.push_back(std::atoi(item.c_str()));
                pos = comma + 1;
            }
        } else if (flag == "--backend") {
            if (!parseLutGemmBackend(argv[++i], &cli.backend)) {
                std::cerr << "unknown backend: " << argv[i]
                          << " (want reference | simd)\n";
                return false;
            }
        } else if (flag == "--kv-budget-mb") {
            cli.kvBudgetMb = std::atof(argv[++i]);
        } else if (flag == "--block-tokens") {
            cli.blockTokens =
                static_cast<std::size_t>(std::atoll(argv[++i]));
        } else if (flag == "--prefill-chunk") {
            cli.prefillChunk =
                static_cast<std::size_t>(std::atoll(argv[++i]));
        } else if (flag == "--policy") {
            cli.policy = argv[++i];
        } else if (flag == "--deadline-ms") {
            cli.deadlineMs = std::atof(argv[++i]);
        } else if (flag == "--fault-every") {
            cli.faultEvery =
                static_cast<std::size_t>(std::atoll(argv[++i]));
        } else if (flag == "--slo-ttft-ms") {
            cli.slo.ttftMs = std::atof(argv[++i]);
        } else if (flag == "--slo-itl-ms") {
            cli.slo.itlMs = std::atof(argv[++i]);
        } else if (flag == "--json") {
            cli.jsonPath = argv[++i];
        } else if (flag == "--csv") {
            cli.csvName = argv[++i];
        } else if (flag == "--queue-csv") {
            cli.queueCsvName = argv[++i];
        } else {
            std::cerr << "unknown flag: " << flag << "\n";
            printUsage();
            return false;
        }
    }
    return true;
}

std::string
pct(const LatencySummary &s)
{
    return TextTable::num(s.p50, 2) + " / " + TextTable::num(s.p95, 2) +
           " / " + TextTable::num(s.p99, 2);
}

void
addSummaryRow(TextTable &table, const std::string &scenario,
              const std::string &source, const LoadSummary &summary)
{
    table.addRow({scenario, source, pct(summary.ttftMs),
                  pct(summary.itlMs),
                  TextTable::num(summary.shedRate * 100.0, 1),
                  TextTable::num(summary.evictRate * 100.0, 1),
                  TextTable::num(summary.deadlineMissRate * 100.0, 1),
                  TextTable::num(summary.queueDepthMean, 2) + " / " +
                      TextTable::num(summary.queueDepthMax, 0),
                  TextTable::num(summary.tokensPerS, 1),
                  TextTable::num(summary.goodputTokPerS, 1)});
}

double
meanItlMs(const RequestOutcome &outcome)
{
    if (outcome.tokens() < 2)
        return 0.0;
    return (outcome.tokenTimesS.back() - outcome.tokenTimesS.front()) *
           1e3 / static_cast<double>(outcome.tokens() - 1);
}

/** One harness run: a scenario at one KV budget, under one record
 *  name (the overload sweep expands to three of these). */
struct SweepJob
{
    ScenarioSpec scenario;
    std::string label; ///< record suffix ("overload-b60", ...)
    std::size_t kvBudgetBytes = 0;
    /** ExecOptions::shards of this job (0 = auto). */
    int shards = 0;
};

/**
 * Peak concurrent KV block demand of the trace: the maxBatch largest
 * per-request block footprints (prompt + full decode budget, rounded
 * up to whole blocks, across every layer) summed — the budget a run
 * would need for the worst admissible batch to fit with no
 * degradation at all.
 */
std::size_t
peakDemandBlocks(const std::vector<TraceRequest> &trace,
                 std::size_t blockTokens, std::size_t layers,
                 std::size_t maxBatch)
{
    std::vector<std::size_t> perRequest;
    perRequest.reserve(trace.size());
    for (const TraceRequest &r : trace) {
        const std::size_t tokens = r.promptTokens + r.outputTokens;
        perRequest.push_back(
            (tokens + blockTokens - 1) / blockTokens * layers);
    }
    std::sort(perRequest.begin(), perRequest.end(),
              std::greater<std::size_t>());
    std::size_t blocks = 0;
    for (std::size_t i = 0; i < perRequest.size() && i < maxBatch; ++i)
        blocks += perRequest[i];
    return blocks;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions cli;
    if (!parseArgs(argc, argv, cli))
        return 1;

    serve::DegradationPolicy policy;
    if (cli.policy == "shed-newest") {
        policy = serve::DegradationPolicy::ShedNewest;
    } else if (cli.policy == "evict-idle") {
        policy = serve::DegradationPolicy::EvictLongestIdle;
    } else {
        std::cerr << "unknown policy: " << cli.policy
                  << " (want shed-newest or evict-idle)\n";
        return 1;
    }

    std::vector<ScenarioSpec> scenarios;
    if (cli.scenario == "all") {
        scenarios = builtinScenarios();
    } else if (cli.scenario == "longdoc-ttft") {
        // The prefill-cost sweep: pinned prompt lengths isolate the
        // prompt-compute contribution to TTFT — across these records
        // TTFT must grow with the prompt while queue wait and ITL stay
        // comparable (scripts/check_bench_json.py checks the ordering
        // on each record).
        for (const std::size_t prompt :
             {std::size_t{16}, std::size_t{64}, std::size_t{160}}) {
            ScenarioSpec spec;
            spec.name = "longdoc-p" + std::to_string(prompt);
            spec.arrivals = ArrivalKind::Poisson;
            spec.ratePerS = 24.0;
            spec.prompt = {prompt, prompt};
            spec.output = {8, 16};
            scenarios.push_back(std::move(spec));
        }
    } else {
        const ScenarioSpec *spec = scenarioByName(cli.scenario);
        if (spec == nullptr) {
            std::cerr << "unknown scenario: " << cli.scenario << "\n";
            return 1;
        }
        scenarios.push_back(*spec);
    }

    LoadConfig config;
    config.model.name = "OPT-load";
    config.model.hidden = cli.hidden;
    config.model.layers = cli.layers;
    config.model.heads = cli.heads;
    config.model.ffn = cli.ffn;
    config.engine.model.weightBits = cli.weightBits;
    config.engine.model.bcqIterations = 1;
    config.engine.exec.threads = cli.threads;
    config.engine.exec.backend = cli.backend;
    config.engine.maxBatch = cli.maxBatch;
    config.engine.maxQueue = cli.maxQueue;
    config.engine.kvBlockTokens = cli.blockTokens;
    config.engine.prefillChunkTokens = cli.prefillChunk;
    config.engine.policy = policy;
    config.deadlineS = cli.deadlineMs / 1e3;
    config.hw.engine = EngineKind::FIGLUT_I;

    std::cout << "gemm backend: " << lutGemmBackendName(cli.backend)
              << ", simd isa: " << simdIsaName(activeSimdIsa())
              << "\n";

    // One pure injector shared by the engine and the replay, so both
    // see the identical fault/skew schedule (see FaultInjector).
    CountingFaultInjector injector(cli.faultEvery, 0.0);
    if (cli.faultEvery > 0)
        config.engine.faults = &injector;

    const std::size_t blockBytes =
        cli.blockTokens * 2 * cli.hidden * sizeof(double);
    const std::size_t budgetFloor = blockBytes * cli.layers;

    // Expand scenarios into runnable jobs: the overload scenario
    // becomes a budget sweep at {100%, 60%, 35%} of the trace's peak
    // block demand; everything else runs once at --kv-budget-mb.
    std::vector<SweepJob> jobs;
    for (const ScenarioSpec &base : scenarios) {
        ScenarioSpec scenario = base;
        if (cli.ratePerS > 0.0)
            scenario.ratePerS = cli.ratePerS;
        if (scenario.name == overloadScenario().name) {
            const auto trace =
                generateTrace(scenario, cli.requests, cli.seed);
            const std::size_t peak = peakDemandBlocks(
                trace, cli.blockTokens, cli.layers, cli.maxBatch);
            const struct
            {
                double fraction;
                const char *tag;
            } points[] = {{1.0, "b100"}, {0.6, "b60"}, {0.35, "b35"}};
            for (const auto &point : points) {
                const auto blocks = static_cast<std::size_t>(
                    std::llround(point.fraction *
                                 static_cast<double>(peak)));
                SweepJob job;
                job.scenario = scenario;
                job.label = scenario.name + "-" + point.tag;
                job.kvBudgetBytes =
                    std::max(budgetFloor, blocks * blockBytes);
                jobs.push_back(std::move(job));
            }
        } else {
            SweepJob job;
            job.scenario = scenario;
            job.label = scenario.name;
            job.kvBudgetBytes = static_cast<std::size_t>(
                cli.kvBudgetMb * 1024.0 * 1024.0);
            if (job.kvBudgetBytes > 0)
                job.kvBudgetBytes =
                    std::max(budgetFloor, job.kvBudgetBytes);
            jobs.push_back(std::move(job));
        }
    }

    // Cross with the shard sweep: one job per (scenario, shard count).
    // Resolved counts > 1 suffix the record name (-s2, -s4, ...) so a
    // sweep's records coexist in one artifact; the unsharded record
    // keeps its unsuffixed name for trajectory continuity.
    {
        std::vector<SweepJob> crossed;
        crossed.reserve(jobs.size() * cli.shards.size());
        for (const SweepJob &base : jobs) {
            for (const int shards : cli.shards) {
                SweepJob job = base;
                job.shards = shards;
                const int resolved = resolveShardCount(shards);
                if (resolved > 1)
                    job.label += "-s" + std::to_string(resolved);
                crossed.push_back(std::move(job));
            }
        }
        jobs = std::move(crossed);
    }

    banner("serving_load",
           "trace-driven serving latency vs the simulated accelerator");
    std::cout << "model " << cli.hidden << "x" << cli.layers << "L q"
              << cli.weightBits << ", maxBatch " << cli.maxBatch
              << ", maxQueue " << cli.maxQueue << ", seed " << cli.seed
              << ", SLO ttft<=" << cli.slo.ttftMs << "ms itl<="
              << cli.slo.itlMs << "ms\n"
              << "governance: policy "
              << serve::degradationPolicyName(policy)
              << ", blockTokens " << cli.blockTokens
              << ", prefillChunk " << cli.prefillChunk << ", deadline "
              << cli.deadlineMs << "ms, fault-every " << cli.faultEvery
              << "\n\n";

    auto requestCsv =
        openCsv(cli.csvName,
                {"scenario", "source", "request", "arrival_s",
                 "prompt_tokens", "output_tokens", "shed",
                 "deadline_miss", "evictions", "queue_ms", "ttft_ms",
                 "mean_itl_ms", "tokens", "slo_met"});
    auto queueCsv = openCsv(cli.queueCsvName,
                            {"scenario", "source", "step",
                             "queue_depth", "step_ms"});

    TextTable table({"scenario", "source", "ttft ms p50/p95/p99",
                     "itl ms p50/p95/p99", "shed %", "evict %",
                     "dl-miss %", "queue mean / max", "tok/s",
                     "goodput tok/s"});
    std::vector<JsonBenchRecord> records;

    const int numaNodes =
        static_cast<int>(detectNumaTopology().nodeCount());

    for (const SweepJob &job : jobs) {
        const ScenarioSpec &scenario = job.scenario;
        config.engine.kvBudgetBytes = job.kvBudgetBytes;
        config.engine.exec.shards = job.shards;
        const int resolvedShards = resolveShardCount(job.shards);
        const auto trace =
            generateTrace(scenario, cli.requests, cli.seed);

        const LoadRun measured = runMeasured(config, trace);
        const LoadRun simulated = runSimulated(config, trace);
        const LoadSummary m = summarizeRun(measured, cli.slo);
        const LoadSummary s = summarizeRun(simulated, cli.slo);

        addSummaryRow(table, job.label, "measured", m);
        addSummaryRow(table, job.label, "simulated", s);

        for (const auto &[source, run] :
             std::vector<std::pair<std::string, const LoadRun *>>{
                 {"measured", &measured}, {"simulated", &simulated}}) {
            for (std::size_t i = 0; i < run->requests.size(); ++i) {
                const RequestOutcome &o = run->requests[i];
                requestCsv->addRow(
                    {job.label, source, std::to_string(i),
                     TextTable::num(o.arrivalS, 6),
                     std::to_string(o.promptTokens),
                     std::to_string(o.outputTokens),
                     o.shed ? "1" : "0", o.deadlineMiss ? "1" : "0",
                     std::to_string(o.evictions),
                     TextTable::num(o.queueS * 1e3, 3),
                     TextTable::num(o.ttftS * 1e3, 3),
                     TextTable::num(meanItlMs(o), 3),
                     std::to_string(o.tokens()),
                     meetsSlo(o, cli.slo) ? "1" : "0"});
            }
            for (std::size_t step = 0; step < run->queueDepth.size();
                 ++step)
                queueCsv->addRow(
                    {job.label, source, std::to_string(step),
                     std::to_string(run->queueDepth[step]),
                     TextTable::num(run->stepSeconds[step] * 1e3, 4)});
        }

        JsonBenchRecord record;
        record.name = "serving_load/" + job.label;
        record.nsPerIter = m.msPerStepMean * 1e6;
        record.tokensPerS = m.tokensPerS;
        record.extra = {
            {"requests", static_cast<double>(cli.requests)},
            {"seed", static_cast<double>(cli.seed)},
            {"rate_per_s", scenario.ratePerS},
            {"max_batch", static_cast<double>(cli.maxBatch)},
            {"max_queue", static_cast<double>(cli.maxQueue)},
            {"hidden", static_cast<double>(cli.hidden)},
            {"layers", static_cast<double>(cli.layers)},
            {"weight_bits", static_cast<double>(cli.weightBits)},
            // Numeric codes (the record schema is all-numbers): see
            // lutGemmBackendCode() and simdIsaCode().
            {"gemm_backend",
             static_cast<double>(lutGemmBackendCode(cli.backend))},
            {"simd_isa",
             static_cast<double>(simdIsaCode(activeSimdIsa()))},
            {"shards", static_cast<double>(resolvedShards)},
            {"numa_nodes", static_cast<double>(numaNodes)},
            {"slo_ttft_ms", cli.slo.ttftMs},
            {"slo_itl_ms", cli.slo.itlMs},
            {"kv_budget_mb", static_cast<double>(job.kvBudgetBytes) /
                                 (1024.0 * 1024.0)},
            {"kv_block_tokens", static_cast<double>(cli.blockTokens)},
            {"prefill_chunk_tokens",
             static_cast<double>(cli.prefillChunk)},
            {"fault_every", static_cast<double>(cli.faultEvery)},
            {"deadline_ms", cli.deadlineMs},
            {"prefill_tokens", static_cast<double>(m.prefillTokens)},
            {"decode_tokens", static_cast<double>(m.decodeTokens)},
            {"queue_ms_p50", m.queueMs.p50},
            {"ttft_ms_p50", m.ttftMs.p50},
            {"ttft_ms_p95", m.ttftMs.p95},
            {"ttft_ms_p99", m.ttftMs.p99},
            {"itl_ms_p50", m.itlMs.p50},
            {"itl_ms_p95", m.itlMs.p95},
            {"itl_ms_p99", m.itlMs.p99},
            {"shed_rate", m.shedRate},
            {"evict_rate", m.evictRate},
            {"deadline_miss_rate", m.deadlineMissRate},
            {"queue_depth_mean", m.queueDepthMean},
            {"queue_depth_max", m.queueDepthMax},
            {"goodput_tok_per_s", m.goodputTokPerS},
            {"ms_per_step_mean", m.msPerStepMean},
            {"sim_prefill_tokens",
             static_cast<double>(s.prefillTokens)},
            {"sim_decode_tokens", static_cast<double>(s.decodeTokens)},
            {"sim_queue_ms_p50", s.queueMs.p50},
            {"sim_ttft_ms_p50", s.ttftMs.p50},
            {"sim_ttft_ms_p95", s.ttftMs.p95},
            {"sim_ttft_ms_p99", s.ttftMs.p99},
            {"sim_itl_ms_p50", s.itlMs.p50},
            {"sim_itl_ms_p95", s.itlMs.p95},
            {"sim_itl_ms_p99", s.itlMs.p99},
            {"sim_shed_rate", s.shedRate},
            {"sim_evict_rate", s.evictRate},
            {"sim_deadline_miss_rate", s.deadlineMissRate},
            {"sim_tokens_per_s", s.tokensPerS},
            {"sim_goodput_tok_per_s", s.goodputTokPerS},
            {"sim_ms_per_step_mean", s.msPerStepMean},
        };
        records.push_back(std::move(record));

        std::cout << job.label << ": " << trace.size()
                  << " arrivals, shards " << resolvedShards
                  << " (" << numaNodes << " NUMA node"
                  << (numaNodes == 1 ? "" : "s") << "), budget "
                  << (job.kvBudgetBytes == 0
                          ? std::string("unbounded")
                          : TextTable::num(
                                static_cast<double>(job.kvBudgetBytes) /
                                    (1024.0 * 1024.0),
                                2) + " MiB")
                  << ", measured " << measured.stepSeconds.size()
                  << " steps / simulated "
                  << simulated.stepSeconds.size() << " steps\n";
    }

    std::cout << "\n" << table.render() << "\n";
    std::cout << "measured = serve::Engine on this host (wall clock); "
                 "simulated = sim::Accelerator replay of the same "
                 "trace\n(identical scheduling by construction — the "
                 "absolute gap is host-vs-modeled-hardware speed; the "
                 "queueing shape is the cross-validation).\n";

    writeBenchJson(cli.jsonPath, records);
    std::cout << "\nwrote " << records.size() << " records to "
              << cli.jsonPath << ", per-request log to bench_out/"
              << cli.csvName << ", queue series to bench_out/"
              << cli.queueCsvName << "\n";
    return 0;
}
