/**
 * @file
 * Quickstart: the short path from an OPT-style architecture to a real
 * numeric decode step — build a serve::Engine (quantize + pack once),
 * submit requests and step them, and score the identical layer graph
 * on the modeled accelerator.
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <iostream>

#include "figlut/figlut.h"

using namespace figlut;

int
main()
{
    std::cout << "FIGLUT quickstart\n=================\n\n";

    // 1. A small OPT-style decoder, quantized to 3-bit BCQ with an
    //    offset term and LUT-key-packed — all one-time work done by
    //    Engine::create.
    OptConfig tiny;
    tiny.name = "OPT-tiny";
    tiny.hidden = 128;
    tiny.layers = 2;
    tiny.heads = 4;
    tiny.ffn = 512;

    const std::size_t batch = 4;
    serve::EngineOptions opts;
    opts.maxBatch = batch;
    opts.model.weightBits = 3;
    opts.model.useOffset = true;
    auto created = serve::Engine::create(tiny, opts);
    if (!created.ok()) {
        std::cerr << created.status().toString() << "\n";
        return 1;
    }
    serve::Engine &engine = *created.value();

    const double fp16Bytes = engine.model().config().layers *
                             (4.0 * tiny.hidden * tiny.hidden +
                              2.0 * tiny.hidden * tiny.ffn) *
                             2.0;
    std::cout << "built " << tiny.name << " (" << tiny.layers
              << " layers, hidden " << tiny.hidden << "): "
              << engine.model().storageBytes() << " bytes quantized vs "
              << static_cast<std::size_t>(fp16Bytes) << " bytes FP16 ("
              << TextTable::ratio(fp16Bytes /
                                  engine.model().storageBytes())
              << " compression)\n\n";

    // 2. Run decode steps for real: one unbounded request per batch
    //    column, each step one fused pass — GEMMs through the packed
    //    LUT kernel on the engine's persistent ExecutionContext,
    //    vector ops as reference kernels, KV cache growing per step.
    std::vector<serve::RequestId> ids;
    for (std::size_t b = 0; b < batch; ++b) {
        serve::RequestOptions req;
        req.maxTokens = 0;
        req.seed = Rng::kDefaultSeed + b;
        ids.push_back(engine.submit(req).value());
    }
    for (int step = 0; step < 3; ++step) {
        const auto r = engine.step().value();
        std::cout << "step " << step << ": " << r.gemmCalls
                  << " weight GEMMs, " << r.counters.lutReads
                  << " LUT reads (each retiring mu="
                  << engine.options().model.mu
                  << " binary MACs), KV length "
                  << engine.poll(ids.front()).value().kvLength << "\n";
    }

    // 3. What would such a step cost on the modeled hardware? The
    //    accelerator scores the same layer graph the engine ran, at a
    //    512-token context, via the analytic model.
    WorkloadOptions wl;
    wl.batch = batch;
    wl.contextLen = 512;
    wl.weightBits = opts.model.weightBits;
    wl.groupSize = opts.model.groupSize;
    wl.hasOffset = opts.model.useOffset;
    wl.shards = engine.shards();
    HwConfig hw;
    hw.engine = EngineKind::FIGLUT_I;
    const auto sim = Accelerator(hw).runWorkload(
        decodeStepWorkload(engine.model().config(), wl));
    std::cout << "\nsimulated on " << hw.describe() << ": "
              << TextTable::num(sim.seconds * 1e3, 3) << " ms/step, "
              << TextTable::num(sim.energy.totalJoules() * 1e3, 3)
              << " mJ, " << TextTable::num(sim.topsPerWatt, 2)
              << " TOPS/W\n";
    return 0;
}
