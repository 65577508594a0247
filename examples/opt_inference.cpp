/**
 * @file
 * OPT decode-step inference through serve::Engine: quantize + pack a
 * (layer-truncated) OPT variant once, run real numeric decode steps
 * with reused execution resources, then score the identical
 * layer graph on every modeled engine — the scenario behind the
 * paper's Table V, with the numeric and analytic views guaranteed to
 * describe the same workload.
 *
 * Usage: opt_inference [model] [batch] [weight_bits] [layers] [steps]
 *   e.g. ./build/examples/opt_inference OPT-125M 4 4 2 3
 * layers = 0 materializes the full model (minutes of one-time
 * quantization for the larger variants).
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>

#include "figlut/figlut.h"

using namespace figlut;

int
main(int argc, char **argv)
{
    const std::string model_name = argc > 1 ? argv[1] : "OPT-125M";
    const std::size_t batch =
        argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 4;
    const int bits = argc > 3 ? std::atoi(argv[3]) : 4;
    const std::size_t layers =
        argc > 4 ? static_cast<std::size_t>(std::atoi(argv[4])) : 2;
    const int steps = argc > 5 ? std::atoi(argv[5]) : 3;

    const auto &model = optByName(model_name);
    serve::EngineOptions opts;
    opts.maxBatch = batch;
    opts.model.weightBits = bits;
    opts.model.bcqIterations = 1;
    opts.model.maxLayers = layers;

    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();
    auto created = serve::Engine::create(model, opts);
    const auto t1 = Clock::now();
    if (!created.ok()) {
        std::cerr << created.status().toString() << "\n";
        return 1;
    }
    serve::Engine &engine = *created.value();
    const auto &cfg = engine.model().config();

    std::cout << "Engine: " << cfg.name << ", " << cfg.layers << "/"
              << model.layers << " layers, batch " << batch << ", Q"
              << bits << " weights\n"
              << "one-time quantize+pack: "
              << TextTable::num(
                     std::chrono::duration<double>(t1 - t0).count(), 2)
              << " s, " << engine.model().storageBytes() / 1024
              << " KiB weights + "
              << engine.model().packedKeyBytes() / 1024
              << " KiB packed keys\n\n";

    // Numeric decode steps: one unbounded request per batch column,
    // each step one fused pass of packed LUT-GEMM kernels on the
    // engine's persistent ExecutionContext, KV cache growing per step.
    for (std::size_t b = 0; b < batch; ++b) {
        serve::RequestOptions req;
        req.maxTokens = 0;
        req.seed = Rng::kDefaultSeed + b;
        (void)engine.submit(req).value();
    }
    LutGemmCounters total;
    const auto t2 = Clock::now();
    for (int step = 0; step < steps; ++step)
        total = engine.step().value().counters;
    const auto t3 = Clock::now();
    const double secs = std::max(
        std::chrono::duration<double>(t3 - t2).count(), 1e-9);
    std::cout << steps << " decode steps (host, "
              << engine.context().poolThreads() << " workers): "
              << TextTable::num(secs * 1e3 / std::max(steps, 1), 2)
              << " ms/step, "
              << TextTable::num(
                     static_cast<double>(batch) * std::max(steps, 0) /
                         secs,
                     1)
              << " tokens/s, " << total.lutReads
              << " LUT reads in the last step\n\n";

    // The same layer graph on the modeled accelerators (Table V).
    WorkloadOptions wl;
    wl.batch = batch;
    wl.contextLen = 512;
    wl.weightBits = bits;
    wl.groupSize = opts.model.groupSize;
    wl.hasOffset = opts.model.useOffset;
    wl.shards = engine.shards();
    const auto tasks = decodeStepWorkload(cfg, wl);
    TextTable table({"engine", "latency (ms)", "energy (mJ)",
                     "power (W)", "eff TOPS", "TOPS/W",
                     "GEMM/VPU cycles"});
    for (const auto e : kAllEngines) {
        HwConfig hw;
        hw.engine = e;
        if (bits > 4)
            hw.fixedWeightBits = 8;
        const Accelerator acc(hw);
        const auto r = acc.runWorkload(tasks);
        table.addRow(
            {engineName(e), TextTable::num(r.seconds * 1e3, 2),
             TextTable::num(r.energy.totalJoules() * 1e3, 2),
             TextTable::num(r.powerW, 3),
             TextTable::num(r.effTops, 3),
             TextTable::num(r.topsPerWatt, 2),
             TextTable::num(r.gemmCycles / std::max(1.0, r.vpuCycles),
                            1)});
    }
    std::cout << table.render();
    std::cout << "\n" << tasks.size()
              << " kernels/step; GEMMs dominate (last column), so "
                 "weight-GEMM efficiency sets system efficiency — "
                 "the paper's premise.\n";
    return 0;
}
