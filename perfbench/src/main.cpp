/**
 * @file
 * perfbench: closed-loop serving benchmark of serve::Engine.
 *
 *   perfbench --workload chat|longdoc|kv-pressure --seed N --seconds S
 *             [--trace 0|1]
 *
 * Builds the engine (timed as set-up), then drives the workload's
 * seeded request list through it as a closed loop. S sizes the list
 * (S times the workload's nominal request rate), so the measured phase
 * lasts about S seconds while its batch schedule stays a function of
 * (workload, seed, S) alone. The run then passes the correctness gate
 * (gate.h). --trace 0 reports the end-to-end metrics; --trace 1 runs
 * the layer probes after every step, reports the per-layer metrics,
 * and writes a Chrome trace and a per-layer table to kOutDir. The last
 * stdout line is the JSON result; a failed check sets its "correct"
 * to false.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "closed_loop.h"
#include "core/simd.h"
#include "gate.h"
#include "host.h"
#include "percentile.h"
#include "probes.h"
#include "runtime/quantized_model.h"
#include "spans.h"
#include "workload.h"

namespace {

using namespace perfbench;
using figlut::serve::Engine;
using figlut::serve::RequestState;

struct Cli
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/**
 * GEMM workers. One, not two: on a shared VM two workers run a chat
 * step about a quarter faster, but every GEMM then waits on two vCPUs
 * and run-to-run spread under hypervisor steal roughly doubles
 * (README.md, host noise profile).
 */
constexpr int kGemmThreads = 1;
/** Where the traced run writes its files, relative to the working
 *  directory (the repository root when run through run.py). */
constexpr const char *kOutDir = ".bench_build/perfbench/out";

constexpr int kSetupRepeats = 9;
/** Prompt + output tokens the batch-1 Reference re-runs may cover. */
constexpr std::size_t kGateTokens = 600;

[[noreturn]] void
usage(const std::string &error)
{
    std::cerr << "perfbench: " << error << "\n"
              << "usage: perfbench --workload NAME --seed N --seconds S "
                 "[--trace 0|1]\n";
    std::exit(2);
}

Cli
parseCli(int argc, char **argv)
{
    Cli cli;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            cli.workload = value;
        else if (flag == "--seed")
            cli.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            cli.seconds = std::atof(value.c_str());
        else if (flag == "--trace")
            cli.trace = value == "1";
        else
            usage("unknown flag " + flag);
    }
    if (cli.workload.empty())
        usage("--workload is required");
    if (!(cli.seconds > 0.0))
        usage("--seconds must be positive");
    return cli;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v.empty() ? 0.0 : v[(v.size() - 1) / 2];
}

const char *
envOr(const char *name, const char *fallback)
{
    const char *value = std::getenv(name);
    return value != nullptr ? value : fallback;
}

/** Named metrics with units, in emission order. */
class Metrics
{
  public:
    void
    set(const std::string &name, double value, const std::string &unit)
    {
        entries_.push_back({name, value, unit});
    }

    /** A percentile metric, or a recorded failure when unsupported. */
    void
    setPercentile(const std::string &name, const std::vector<double> &samples,
                  double p, double scale, const std::string &unit)
    {
        const auto value = percentile(samples, p);
        if (value)
            set(name, *value * scale, unit);
        else
            missing_.push_back(name + " (" + std::to_string(samples.size()) +
                               " samples)");
    }

    const std::vector<std::string> &missing() const { return missing_; }

    void
    writeJson(std::ostream &out) const
    {
        out << "{";
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            const Entry &e = entries_[i];
            out << (i ? ", " : "") << "\"" << e.name
                << "\": {\"value\": " << e.value << ", \"unit\": \""
                << e.unit << "\"}";
        }
        out << "}";
    }

    void
    writeTable(std::ostream &out) const
    {
        for (const Entry &e : entries_)
            out << "  " << std::left << std::setw(38) << e.name << e.value
                << " " << e.unit << "\n";
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
    std::vector<std::string> missing_;
};

/** Per-step readings of the traced run. */
struct TracedStep
{
    bool work = false;
    double stepS = 0.0;
    ProbeSample probe;
    std::size_t kvTokens = 0;
    std::size_t kvBlocks = 0;
};

/** Spans around every call into the engine, probes after every working step,
 *  and the KV fill read from the live requests' lengths. */
class TracedObserver : public LoopObserver
{
  public:
    TracedObserver(Engine &engine, SpanRecorder &spans, LayerProbes &probes)
        : engine_(engine), spans_(spans), probes_(probes)
    {
    }

    void
    onSubmit(figlut::serve::RequestId id, double t0, double t1) override
    {
        spans_.add("submit", t0, t1, kNone, static_cast<std::int64_t>(id));
        outstanding_.insert(id);
    }

    void
    onStep(const figlut::serve::StepStats &stats, double t0,
           double t1) override
    {
        const auto stepId = static_cast<std::int64_t>(steps.size());
        spans_.add("step", t0, t1, stepId);
        TracedStep step;
        step.work = stats.prefillTokens + stats.decodeTokens > 0;
        step.stepS = t1 - t0;
        if (step.work)
            step.probe = probes_.run(stats, spans_, stepId);
        for (const figlut::serve::RequestId id : outstanding_) {
            const auto snapshot = engine_.poll(id);
            if (snapshot.ok())
                step.kvTokens += snapshot.value().kvLength;
        }
        step.kvBlocks = stats.kvBlocksInUse;
        steps.push_back(step);
    }

    void
    onPoll(figlut::serve::RequestId id, double t0, double t1) override
    {
        spans_.add("poll", t0, t1, kNone, static_cast<std::int64_t>(id));
        outstanding_.erase(id);
    }

    std::vector<TracedStep> steps;

  private:
    Engine &engine_;
    SpanRecorder &spans_;
    LayerProbes &probes_;
    std::unordered_set<figlut::serve::RequestId> outstanding_;
};

/** Per-request outcomes of a gated run, folded into samples. */
struct Outcomes
{
    std::vector<double> ttftS, itlS, queueS;
    std::size_t attempted = 0, ok = 0, failed = 0, tokens = 0;
};

Outcomes
foldOutcomes(const LoopResult &run, const GateReport &gate)
{
    Outcomes out;
    for (std::size_t i = 0; i < run.requests.size(); ++i) {
        const RequestRecord &rec = run.requests[i];
        ++out.attempted;
        if (gate.failed[i]) {
            ++out.failed;
            continue;
        }
        // Shed requests are refused, not failed: they count against
        // ok_frac and miss every latency sample.
        if (rec.state != RequestState::Finished)
            continue;
        ++out.ok;
        out.tokens += rec.tokenTimesS.size();
        out.ttftS.push_back(rec.tokenTimesS.front() - rec.submitS);
        for (std::size_t t = 1; t < rec.tokenTimesS.size(); ++t)
            out.itlS.push_back(rec.tokenTimesS[t] - rec.tokenTimesS[t - 1]);
        out.queueS.push_back(rec.stats.queueSeconds);
    }
    return out;
}

/** The per-layer metrics of a traced run (see README.md for the map). */
Metrics
perLayerMetrics(const std::vector<RequestSpec> &requests,
                const figlut::serve::EngineOptions &options,
                const LoopResult &run, const Outcomes &outcomes,
                const std::vector<TracedStep> &traced,
                const figlut::ReplayResult &replay, double replayMs,
                const figlut::serve::EngineClock &clock, SpanRecorder &spans)
{
    const figlut::OptConfig model = benchModel();
    Metrics m;
    std::vector<double> stepMs, decodeMs, prefillMs, cpuMs, cols;
    std::size_t kvPeak = 0, evictions = 0, shed = 0;
    for (const StepRecord &s : run.steps) {
        kvPeak = std::max(kvPeak, s.kvBlocksInUse);
        evictions += s.evicted;
        shed += s.shed;
        if (!s.work())
            continue;
        const double ms = (s.endS - s.startS) * 1e3;
        stepMs.push_back(ms);
        (s.prefillTokens > 0 ? prefillMs : decodeMs).push_back(ms);
        cpuMs.push_back(s.cpuS * 1e3);
        cols.push_back(static_cast<double>(s.prefillTokens + s.decodeTokens));
    }
    std::size_t recomputed = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const std::size_t done = run.requests[i].stats.prefillTokens;
        recomputed += done > requests[i].promptTokens
                          ? done - requests[i].promptTokens
                          : 0;
    }
    std::vector<double> gemmMs, attnMs, restMs;
    double gemmS = 0, attnS = 0, stepS = 0, bytes = 0, reads = 0;
    double kvTokens = 0, kvCapacity = 0;
    for (const TracedStep &s : traced) {
        kvTokens += static_cast<double>(s.kvTokens * model.layers);
        kvCapacity += static_cast<double>(s.kvBlocks * options.kvBlockTokens);
        if (!s.work)
            continue;
        gemmMs.push_back(s.probe.gemmS * 1e3);
        attnMs.push_back(s.probe.attnS * 1e3);
        restMs.push_back((s.stepS - s.probe.gemmS - s.probe.attnS) * 1e3);
        gemmS += s.probe.gemmS;
        attnS += s.probe.attnS;
        stepS += s.stepS;
        bytes += s.probe.gemmBytes;
        reads += static_cast<double>(s.probe.counters.lutReads);
    }

    // The quant layer: model construction as the engine does it (with
    // packed keys), and the key packing alone, over every operand.
    std::vector<double> buildS, packS;
    double packedMb = 0.0;
    for (int r = 0; r < 3; ++r) {
        double t0 = clock.now();
        const figlut::QuantizedModel built(model, options.model);
        double t1 = clock.now();
        buildS.push_back(t1 - t0);
        spans.add("quant.build", t0, t1);
        packedMb =
            static_cast<double>(built.packedKeyBytes()) / (1024.0 * 1024.0);
        t0 = clock.now();
        for (std::size_t l = 0; l < built.layers(); ++l)
            for (const figlut::LayerOp op :
                 {figlut::LayerOp::QkvProj, figlut::LayerOp::OutProj,
                  figlut::LayerOp::Fc1, figlut::LayerOp::Fc2})
                figlut::packLutKeys(built.layer(l).weights(op),
                                    options.model.mu);
        t1 = clock.now();
        packS.push_back(t1 - t0);
        spans.add("quant.pack", t0, t1);
    }

    const auto counters = run.counters();
    const double tokens =
        static_cast<double>(std::max<std::size_t>(outcomes.tokens, 1));
    std::vector<double> submitUs = run.submitUs, pollUs = run.pollUs;
    m.set("serve.steps", static_cast<double>(run.workSteps()), "count");
    m.setPercentile("serve.step_ms_p50", stepMs, 50, 1, "ms");
    m.setPercentile("serve.decode_step_ms_p50", decodeMs, 50, 1, "ms");
    m.setPercentile("serve.prefill_step_ms_p50", prefillMs, 50, 1, "ms");
    m.setPercentile("serve.step_cpu_ms_p50", cpuMs, 50, 1, "ms");
    m.set("serve.cols_per_step_mean", mean(cols), "cols");
    m.setPercentile("serve.queue_wait_ms_p50", outcomes.queueS, 50, 1e3, "ms");
    m.setPercentile("serve.submit_us_p50", submitUs, 50, 1, "us");
    m.setPercentile("serve.poll_us_p50", pollUs, 50, 1, "us");
    m.set("core.lut_reads_per_tok",
          static_cast<double>(counters.lutReads) / tokens, "count");
    m.set("core.lut_gens_per_tok",
          static_cast<double>(counters.lutGenerations) / tokens, "count");
    m.setPercentile("core.gemm_ms_per_step_p50", gemmMs, 50, 1, "ms");
    m.set("core.gemm_share", gemmS / stepS, "frac");
    m.set("core.lut_reads_per_s", reads / gemmS, "1/s");
    m.set("core.gemm_gb_per_s", bytes / gemmS / 1e9, "GB/s");
    m.setPercentile("runtime.attn_ms_per_step_p50", attnMs, 50, 1, "ms");
    m.set("runtime.attn_share", attnS / stepS, "frac");
    m.setPercentile("runtime.unattributed_ms_per_step_p50", restMs, 50, 1,
                    "ms");
    m.set("runtime.kv_blocks_peak", static_cast<double>(kvPeak), "count");
    m.set("runtime.kv_fill_frac", kvCapacity > 0 ? kvTokens / kvCapacity : 0,
          "frac");
    m.set("runtime.evictions", static_cast<double>(evictions), "count");
    m.set("runtime.shed", static_cast<double>(shed), "count");
    m.set("runtime.recompute_frac",
          static_cast<double>(recomputed) /
              static_cast<double>(std::max<std::size_t>(run.prefillTokens(), 1)),
          "frac");
    m.set("quant.model_build_s", median(buildS), "s");
    m.set("quant.pack_s", median(packS), "s");
    m.set("quant.packed_key_mb", packedMb, "MB");
    m.set("sim.replay_ms", replayMs, "ms");
    m.set("sim.steps", static_cast<double>(replay.steps), "count");
    m.set("sim.ms_per_tok",
          replay.endS * 1e3 /
              static_cast<double>(
                  std::max<std::size_t>(replay.decodeTokens, 1)),
          "ms");
    return m;
}

/** The traced run's Chrome trace and per-layer table, under outDir. */
void
writeTraceFiles(const std::string &outDir, const std::string &workload,
                std::uint64_t seed, const SpanRecorder &spans,
                const std::vector<TracedStep> &traced)
{
    std::error_code ec;
    std::filesystem::create_directories(outDir, ec);
    const std::string base =
        outDir + "/" + workload + "-seed" + std::to_string(seed);
    std::ofstream trace(base + ".trace.json");
    spans.writeChromeTrace(trace);

    std::vector<double> stepMs, gemmMs, attnMs, restMs;
    double stepS = 0, gemmS = 0, attnS = 0;
    for (const TracedStep &s : traced) {
        if (!s.work)
            continue;
        stepMs.push_back(s.stepS * 1e3);
        gemmMs.push_back(s.probe.gemmS * 1e3);
        attnMs.push_back(s.probe.attnS * 1e3);
        restMs.push_back((s.stepS - s.probe.gemmS - s.probe.attnS) * 1e3);
        stepS += s.stepS;
        gemmS += s.probe.gemmS;
        attnS += s.probe.attnS;
    }
    std::ofstream table(base + ".layers.txt");
    table << "workload " << workload << ", seed " << seed << ": "
          << stepMs.size() << " working steps, " << stepS << " s\n"
          << "layer    part          ms/step p50   share of step time\n";
    const auto row = [&](const char *layer, const char *part,
                         const std::vector<double> &ms, double seconds) {
        const auto p50 = percentile(ms, 50);
        char line[128];
        std::snprintf(line, sizeof line, "%-8s %-13s %11.4f   %8.4f\n", layer,
                      part, p50 ? *p50 : std::nan(""), seconds / stepS);
        table << line;
    };
    row("core", "gemm", gemmMs, gemmS);
    row("runtime", "attention", attnMs, attnS);
    row("runtime", "unattributed", restMs, stepS - gemmS - attnS);
    row("serve", "step", stepMs, stepS);
    if (!trace || !table)
        std::cerr << "perfbench: could not write " << base << ".*\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const Cli cli = parseCli(argc, argv);
    WorkloadSpec spec;
    if (!workloadByName(cli.workload, &spec))
        usage("unknown workload " + cli.workload);
    const int hw = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
    const int threads = std::min(kGemmThreads, hw);

    const figlut::OptConfig model = benchModel();
    const std::vector<RequestSpec> requests = generateRequests(
        spec, cli.seed, requestCount(spec, cli.seconds));
    figlut::serve::SteadyClock clock;
    figlut::serve::EngineOptions options = engineOptions(
        spec, requests.size(), figlut::LutGemmBackend::Simd, threads);
    options.clock = &clock;

    const HostSample host0 = sampleHost();
    SpanRecorder spans;

    // Set-up: Engine::create (quantize + pack every layer), repeated;
    // the last engine serves the run.
    std::vector<double> setupS;
    std::unique_ptr<Engine> engine;
    for (int r = 0; r < kSetupRepeats; ++r) {
        engine.reset();
        const double t0 = clock.now();
        auto created = Engine::create(model, options);
        const double t1 = clock.now();
        if (!created.ok()) {
            std::cerr << "perfbench: Engine::create failed: "
                      << created.status().toString() << "\n";
            return 1;
        }
        engine = std::move(created.value());
        setupS.push_back(t1 - t0);
        spans.add("create", t0, t1);
    }

    // Warm-up (unmeasured): spawn workers, materialize arena chunks.
    runClosedLoop(*engine, clock,
                  generateRequests(spec, cli.seed ^ 0x3a3a, spec.maxBatch),
                  spec.clients);

    std::unique_ptr<LayerProbes> probes;
    std::unique_ptr<TracedObserver> observer;
    if (cli.trace) {
        probes = std::make_unique<LayerProbes>(*engine, clock, threads);
        observer = std::make_unique<TracedObserver>(*engine, spans, *probes);
    }
    const LoopResult run = runClosedLoop(*engine, clock, requests,
                                         spec.clients, observer.get());
    const double rssMb = peakRssMb();
    const HostSample host1 = sampleHost();

    // Correctness gate, outside the timed window.
    GateReport gate;
    checkTerminal(requests, run, gate);
    verifyBatchOne(model, options, requests, run,
                   gateSample(requests, run, kGateTokens, cli.seed), gate);
    std::vector<double> replayMs;
    figlut::ReplayResult replay;
    for (int r = 0; r < (cli.trace ? 3 : 1); ++r) {
        const double t0 = clock.now();
        replay = replayAtZero(model, options, requests);
        const double t1 = clock.now();
        replayMs.push_back((t1 - t0) * 1e3);
        spans.add("replayTrace", t0, t1);
    }
    checkReplay(replay, run, gate);
    if (run.errors > 0)
        gate.problems.push_back(std::to_string(run.errors) +
                                " engine calls failed");
    const Outcomes outcomes = foldOutcomes(run, gate);
    if (outcomes.tokens == 0)
        gate.problems.push_back("no request finished");

    const double wallS = run.endS - run.startS;
    const double tokens =
        static_cast<double>(std::max<std::size_t>(outcomes.tokens, 1));
    Metrics e2e;
    e2e.setPercentile("ttft_p50_ms", outcomes.ttftS, 50, 1e3, "ms");
    e2e.setPercentile("itl_p50_ms", outcomes.itlS, 50, 1e3, "ms");
    e2e.set("cpu_us_per_tok", run.cpuS * 1e6 / tokens, "us");
    e2e.set("ok_frac",
            static_cast<double>(outcomes.ok) /
                static_cast<double>(outcomes.attempted),
            "frac");
    e2e.set("setup_s", median(setupS), "s");
    e2e.set("peak_rss_mb", rssMb, "MB");

    // Diagnostics: reported beside the metrics, never gated on. tok_s
    // is here, not above: in a closed loop it carries the same signal
    // as itl_p50_ms, and it is the metric most exposed to steal time
    // (README.md, host noise profile).
    Metrics diag;
    diag.set("tok_s", tokens / wallS, "tok/s");
    diag.setPercentile("ttft_p90_ms", outcomes.ttftS, 90, 1e3, "ms");
    diag.setPercentile("itl_p90_ms", outcomes.itlS, 90, 1e3, "ms");
    diag.set("steal_s", host1.stealS - host0.stealS, "s");
    diag.set("involuntary_switches",
             static_cast<double>(host1.involuntarySwitches -
                                 host0.involuntarySwitches),
             "count");
    diag.set("cpu_s", host1.cpuS - host0.cpuS, "s");
    diag.set("measured_s", wallS, "s");
    diag.set("ttft_samples", static_cast<double>(outcomes.ttftS.size()),
             "count");
    diag.set("itl_samples", static_cast<double>(outcomes.itlS.size()),
             "count");

    Metrics layers;
    if (cli.trace) {
        layers = perLayerMetrics(requests, options, run, outcomes,
                                 observer->steps, replay, median(replayMs),
                                 clock, spans);
        writeTraceFiles(kOutDir, spec.name, cli.seed, spans,
                        observer->steps);
    }

    const bool correct = gate.ok() && e2e.missing().empty() &&
                         layers.missing().empty();
    const char *isa = figlut::simdIsaName(figlut::activeSimdIsa());
    std::cout.precision(10);
    std::cout << "perfbench " << spec.name << " seed " << cli.seed
              << ": simd isa " << isa << ", backend simd, threads " << threads
              << ", shards " << engine->shards() << ", model " << model.hidden
              << "x" << model.layers << "L q" << options.model.weightBits
              << ", " << requests.size() << " requests, " << run.workSteps()
              << " steps\n";
    std::cout << "end-to-end" << (cli.trace ? " (traced)" : "") << ":\n";
    e2e.writeTable(std::cout);
    std::cout << "diagnostics:\n";
    diag.writeTable(std::cout);
    if (cli.trace) {
        std::cout << "per-layer:\n";
        layers.writeTable(std::cout);
    }
    for (const std::string &p : gate.problems)
        std::cout << "GATE FAIL: " << p << "\n";
    for (const std::string &m : e2e.missing())
        std::cout << "UNSUPPORTED PERCENTILE: " << m << "\n";
    for (const std::string &m : layers.missing())
        std::cout << "UNSUPPORTED PERCENTILE: " << m << "\n";

    // The record: every knob the environment could change, echoed.
    const auto c = run.counters();
    std::size_t evictions = 0, shed = 0;
    for (const StepRecord &s : run.steps) {
        evictions += s.evicted;
        shed += s.shed;
    }
    std::cout << "{\"record\": \"perfbench/" << spec.name
              << "\", \"config\": {\"workload\": \"" << spec.name
              << "\", \"seed\": " << cli.seed << ", \"seconds\": "
              << cli.seconds << ", \"trace\": " << cli.trace
              << ", \"simd_isa\": \"" << isa
              << "\", \"backend\": \"simd\", \"threads\": " << threads
              << ", \"shards\": " << engine->shards()
              << ", \"env_FIGLUT_SIMD\": \"" << envOr("FIGLUT_SIMD", "")
              << "\", \"env_FIGLUT_SHARDS\": \"" << envOr("FIGLUT_SHARDS", "")
              << "\", \"hidden\": " << model.hidden
              << ", \"layers\": " << model.layers
              << ", \"heads\": " << model.heads << ", \"ffn\": " << model.ffn
              << ", \"weight_bits\": " << options.model.weightBits
              << ", \"requests\": " << requests.size()
              << ", \"clients\": " << spec.clients
              << ", \"max_batch\": " << spec.maxBatch
              << ", \"prefill_chunk\": " << spec.prefillChunkTokens
              << ", \"kv_budget_bytes\": " << options.kvBudgetBytes
              << "}, \"schedule\": {\"steps\": " << run.workSteps()
              << ", \"prefill_tokens\": " << run.prefillTokens()
              << ", \"decode_tokens\": " << run.decodeTokens()
              << ", \"lut_reads\": " << c.lutReads
              << ", \"lut_generations\": " << c.lutGenerations
              << ", \"evictions\": " << evictions << ", \"shed\": " << shed
              << "}, \"gate\": {\"checked\": " << gate.checked
              << ", \"mismatches\": " << gate.mismatches
              << ", \"problems\": " << gate.problems.size()
              << "}, \"diagnostics\": ";
    diag.writeJson(std::cout);
    if (cli.trace) {
        std::cout << ", \"traced_end_to_end\": ";
        e2e.writeJson(std::cout);
    }
    std::cout << "}\n";

    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << outcomes.attempted
              << ", \"failed\": " << outcomes.failed << ", \"metrics\": ";
    (cli.trace ? layers : e2e).writeJson(std::cout);
    std::cout << "}" << std::endl;
    return 0;
}
