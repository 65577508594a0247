/**
 * @file
 * Host-side microbenchmarks (google-benchmark): functional kernel
 * costs of the library itself — LUT construction (direct vs tree
 * generator), hFFLUT decode, LUT-GEMM vs the dequantize+FP reference,
 * and the quantizers. These measure the *simulator's* software speed,
 * not modeled hardware.
 *
 * Besides the stock google-benchmark CLI, `--json <path>` writes a
 * machine-readable {name, ns_per_iter, lut_reads_per_s} array for
 * perf-trajectory recording (see bench_util.h); CI's Release bench
 * smoke step relies on it.
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "figlut/figlut.h"
#include "stream_util.h"

using namespace figlut;

namespace {

BcqTensor
benchTensor(std::size_t m, std::size_t n, int bits)
{
    Rng rng(Rng::kDefaultSeed);
    const auto w = syntheticWeights(m, n, rng);
    BcqConfig cfg;
    cfg.bits = bits;
    cfg.useOffset = true;
    cfg.iterations = 2;
    return quantizeBcq(w, cfg);
}

/**
 * Attach the RAC read-rate counter: reads per lutGemm call times the
 * iteration count, reported as a rate ("lut_reads_per_s" in console
 * output and in the --json records). The per-call read count is the
 * kernel's own closed-form accounting.
 */
void
setLutReadRate(benchmark::State &state, const LutGemmCounters &perCall)
{
    state.counters["lut_reads_per_s"] = benchmark::Counter(
        static_cast<double>(perCall.lutReads) *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}

void
BM_LutBuildDirect(benchmark::State &state)
{
    const int mu = static_cast<int>(state.range(0));
    Rng rng(1);
    const auto xs = rng.normalVector(static_cast<std::size_t>(mu));
    for (auto _ : state) {
        auto lut = LutD::buildDirect(xs, FpArith::Fp32);
        benchmark::DoNotOptimize(lut.raw().data());
    }
    state.SetItemsProcessed(state.iterations() << mu);
}
BENCHMARK(BM_LutBuildDirect)->Arg(2)->Arg(4)->Arg(8);

void
BM_LutBuildGenerator(benchmark::State &state)
{
    const int mu = static_cast<int>(state.range(0));
    Rng rng(2);
    const auto xs = rng.normalVector(static_cast<std::size_t>(mu));
    const LutGenerator gen(mu, FpArith::Fp32);
    for (auto _ : state) {
        auto half = gen.generateHalf(xs);
        benchmark::DoNotOptimize(half.stored(0));
    }
    state.SetItemsProcessed(state.iterations() << (mu - 1));
}
BENCHMARK(BM_LutBuildGenerator)->Arg(2)->Arg(4)->Arg(8);

void
BM_HalfLutDecode(benchmark::State &state)
{
    Rng rng(3);
    const auto xs = rng.normalVector(4);
    const auto half = HalfLutD::buildDirect(xs, FpArith::Fp32);
    uint32_t key = 0;
    double acc = 0.0;
    for (auto _ : state) {
        acc += half.value(key);
        key = (key + 7) & 15u;
    }
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HalfLutDecode);

void
BM_LutGemm(benchmark::State &state)
{
    const auto bits = static_cast<int>(state.range(0));
    const auto tensor = benchTensor(128, 256, bits);
    Rng rng(4);
    const auto x = syntheticActivations(256, 4, rng);
    LutGemmConfig cfg;
    cfg.preAligned = true;
    LutGemmCounters perCall;
    (void)lutGemm(tensor, x, cfg, &perCall);
    for (auto _ : state) {
        auto y = lutGemm(tensor, x, cfg);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * 128 * 256 * 4 * bits);
    setLutReadRate(state, perCall);
}
BENCHMARK(BM_LutGemm)->Arg(2)->Arg(4);

/**
 * The single-threaded Reference backend on a large shape (1024x1024,
 * batch 8, Q4, FIGLUT-I): the baseline BM_LutGemmSimd/t is compared
 * against. Outputs are bit-identical to every BM_LutGemmSimd row by
 * construction.
 */
void
BM_LutGemmReference(benchmark::State &state)
{
    const std::size_t m = 1024, n = 1024, batch = 8;
    const auto tensor = benchTensor(m, n, 4);
    Rng rng(8);
    const auto x = syntheticActivations(n, batch, rng);
    LutGemmConfig cfg;
    cfg.preAligned = true;
    cfg.backend = LutGemmBackend::Reference;
    LutGemmCounters perCall;
    (void)lutGemm(tensor, x, cfg, &perCall);
    for (auto _ : state) {
        auto y = lutGemm(tensor, x, cfg);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * m * n * batch));
    setLutReadRate(state, perCall);
}
BENCHMARK(BM_LutGemmReference)->UseRealTime()->Unit(
    benchmark::kMillisecond);

/**
 * SIMD LUT-GEMM on the same 1024x1024x8 shape as BM_LutGemmReference,
 * with the one-time key packing amortized via the pre-packed overload
 * (the repeated-inference scenario), at t workers. The speedup is the
 * items_per_second ratio against BM_LutGemmReference; on hosts where
 * dispatch falls back to the scalar table it comes from the packed
 * layout and the workers alone, and the outputs stay bit-identical by
 * construction. "simd_isa" tags each --json record with the
 * dispatched ISA code (0 scalar, 1 AVX2, 2 NEON, 3 AVX-512).
 */
void
BM_LutGemmSimd(benchmark::State &state)
{
    const int threads = static_cast<int>(state.range(0));
    const std::size_t m = 1024, n = 1024, batch = 8;
    const auto tensor = benchTensor(m, n, 4);
    Rng rng(8);
    const auto x = syntheticActivations(n, batch, rng);
    LutGemmConfig cfg;
    cfg.preAligned = true;
    cfg.backend = LutGemmBackend::Simd;
    cfg.threads = threads;
    cfg.blockRows = 64;
    const auto packed = packLutKeys(tensor, cfg.mu);
    LutGemmCounters perCall;
    (void)lutGemm(tensor, x, cfg, packed, &perCall);
    for (auto _ : state) {
        auto y = lutGemm(tensor, x, cfg, packed);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * m * n * batch));
    state.counters["simd_isa"] = benchmark::Counter(
        static_cast<double>(simdIsaCode(activeSimdIsa())));
    state.counters["threads"] = benchmark::Counter(
        static_cast<double>(resolveThreadCount(threads)));
    setLutReadRate(state, perCall);
}
BENCHMARK(BM_LutGemmSimd)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Repeated small GEMMs, the serving-traffic shape where per-call
 * setup dominates: 256x256, batch 8, Q4, Simd backend with
 * pre-packed keys at 4 requested workers. Arg 0 constructs the
 * ThreadPool and scratch arenas inside every call (the no-context
 * fallback); Arg 1 reuses one ExecutionContext across all calls. The
 * Arg(1)/Arg(0) items_per_second ratio is the amortized-setup win;
 * outputs are bit-identical by construction.
 */
void
BM_LutGemmSmallRepeated(benchmark::State &state)
{
    const bool shared = state.range(0) != 0;
    const std::size_t m = 256, n = 256, batch = 8;
    const auto tensor = benchTensor(m, n, 4);
    Rng rng(10);
    const auto x = syntheticActivations(n, batch, rng);
    LutGemmConfig cfg;
    cfg.preAligned = true;
    cfg.backend = LutGemmBackend::Simd;
    cfg.threads = 4;
    cfg.blockRows = 64;
    const auto packed = packLutKeys(tensor, cfg.mu);
    ExecutionContext ctx(cfg.threads);
    LutGemmCounters perCall;
    (void)lutGemm(tensor, x, cfg, packed, &perCall,
                  shared ? &ctx : nullptr);
    for (auto _ : state) {
        auto y = lutGemm(tensor, x, cfg, packed, nullptr,
                         shared ? &ctx : nullptr);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * m * n * batch));
    setLutReadRate(state, perCall);
}
BENCHMARK(BM_LutGemmSmallRepeated)
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

/**
 * Fused serving step through serve::Engine: `live` concurrent
 * unbounded requests decode one token each per step, so every layer
 * GEMM runs once over the whole live batch (shared packed keys, one
 * ExecutionContext). KV caches are reset each iteration so every
 * measurement is a first decode step.
 *
 * "tokens_per_s" is the fused throughput (live tokens per step); the
 * continuous-batching win is BM_EngineStep/N tokens_per_s against
 * BM_EngineStep/1 — N single-request steps run the same kernels N
 * times, so the fused rate must beat the N-sequential rate whenever
 * the fused step costs less than N single steps. "live_requests" tags
 * each --json record with N so the BENCH trajectory can plot
 * throughput vs concurrency.
 */
void
BM_EngineStep(benchmark::State &state)
{
    const auto live = static_cast<std::size_t>(state.range(0));
    OptConfig model;
    model.name = "OPT-bench";
    model.hidden = 256;
    model.layers = 2;
    model.heads = 4;
    model.ffn = 1024;
    serve::EngineOptions opts;
    opts.maxBatch = live;
    opts.model.weightBits = 4;
    opts.model.bcqIterations = 1;
    auto created = serve::Engine::create(model, opts);
    auto &engine = *created.value();

    std::vector<serve::RequestId> ids;
    for (std::size_t i = 0; i < live; ++i) {
        serve::RequestOptions req;
        req.maxTokens = 0; // unbounded: the bench drives the lifetime
        req.seed = 1000 + i;
        ids.push_back(engine.submit(req).value());
    }
    LutGemmCounters perStep;
    double decodeSeconds = 0.0;
    double attnSeconds = 0.0, gemmSeconds = 0.0, geluSeconds = 0.0;
    for (auto _ : state) {
        for (const auto id : ids)
            (void)engine.resetKv(id);
        auto stats = engine.step();
        benchmark::DoNotOptimize(stats.value().counters.lutReads);
        perStep = stats.value().counters;
        decodeSeconds += stats.value().seconds;
        attnSeconds += stats.value().opSecondsOf(LayerOp::Attention);
        for (const LayerOp op : {LayerOp::QkvProj, LayerOp::OutProj,
                                 LayerOp::Fc1, LayerOp::Fc2})
            gemmSeconds += stats.value().opSecondsOf(op);
        geluSeconds += stats.value().opSecondsOf(LayerOp::Gelu);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * live));
    state.counters["tokens_per_s"] = benchmark::Counter(
        static_cast<double>(live) *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
    // Wall tokens_per_s above includes the per-iteration resetKv
    // bookkeeping; this one divides by the engine's own per-step
    // decode timing hook, so it is the pure fused-decode rate.
    if (decodeSeconds > 0.0)
        state.counters["decode_tokens_per_s"] = benchmark::Counter(
            static_cast<double>(live) *
            static_cast<double>(state.iterations()) / decodeSeconds);
    state.counters["live_requests"] =
        benchmark::Counter(static_cast<double>(live));
    // Where a step's time goes, from the engine's per-op clock reads.
    const double steps = static_cast<double>(state.iterations());
    state.counters["attn_ms_per_step"] = attnSeconds * 1e3 / steps;
    state.counters["gemm_ms_per_step"] = gemmSeconds * 1e3 / steps;
    state.counters["gelu_ms_per_step"] = geluSeconds * 1e3 / steps;
    // The engine's fused GEMMs run on its ExecutionContext at the
    // default worker count; echo it so a trajectory point is
    // interpretable on hosts of different widths.
    state.counters["threads"] = benchmark::Counter(
        static_cast<double>(resolveThreadCount(opts.exec.threads)));
    setLutReadRate(state, perStep);
}
BENCHMARK(BM_EngineStep)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Small-shape Simd smoke: one fast configuration for CI's Release
 * bench step (--json artifact), so the perf harness cannot rot.
 */
void
BM_LutGemmSimdSmoke(benchmark::State &state)
{
    const auto tensor = benchTensor(128, 256, 4);
    Rng rng(9);
    const auto x = syntheticActivations(256, 4, rng);
    LutGemmConfig cfg;
    cfg.preAligned = true;
    cfg.backend = LutGemmBackend::Simd;
    cfg.threads = 1;
    const auto packed = packLutKeys(tensor, cfg.mu);
    LutGemmCounters perCall;
    (void)lutGemm(tensor, x, cfg, packed, &perCall);
    for (auto _ : state) {
        auto y = lutGemm(tensor, x, cfg, packed);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * 128 * 256 * 4);
    setLutReadRate(state, perCall);
}
BENCHMARK(BM_LutGemmSimdSmoke);

void
BM_ReferenceGemm(benchmark::State &state)
{
    const auto tensor = benchTensor(128, 256, 4);
    const auto dequant = tensor.dequantAll();
    Rng rng(5);
    const auto x = syntheticActivations(256, 4, rng);
    NumericsConfig nc;
    for (auto _ : state) {
        auto y = fpReferenceGemm(dequant, x, nc);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * 128 * 256 * 4);
}
BENCHMARK(BM_ReferenceGemm);

void
BM_QuantizeBcq(benchmark::State &state)
{
    Rng rng(6);
    const auto w = syntheticWeights(64, 256, rng);
    BcqConfig cfg;
    cfg.bits = static_cast<int>(state.range(0));
    cfg.useOffset = true;
    cfg.iterations = 4;
    for (auto _ : state) {
        auto t = quantizeBcq(w, cfg);
        benchmark::DoNotOptimize(t.planes.front().data());
    }
    state.SetItemsProcessed(state.iterations() * 64 * 256);
}
BENCHMARK(BM_QuantizeBcq)->Arg(2)->Arg(4);

/**
 * The activation rounding and alignment one FIGLUT-I LUT-GEMM column
 * pays per 128-element group: preAlignInto over the raw activations,
 * which rounds each value to the format once and aligns it into a
 * reused mantissa buffer, as lutGemm's integer path does.
 * ns_per_iter is one group; the ns_per_element counter divides it by
 * the group size.
 */
void
BM_QuantizeActivations(benchmark::State &state, ActFormat fmt)
{
    constexpr std::size_t kGroup = 128;
    Rng rng(8);
    const auto x = rng.normalVector(kGroup);
    std::vector<int64_t> mant(kGroup);
    for (auto _ : state) {
        preAlignInto(x.data(), kGroup, 1, fmt, 24,
                     AlignRounding::NearestEven, mant.data());
        benchmark::DoNotOptimize(mant.data());
    }
    state.SetItemsProcessed(state.iterations() * kGroup);
    // Inverted iteration-invariant rate: seconds per (kGroup * 1e-9)
    // elements, i.e. nanoseconds per element.
    state.counters["ns_per_element"] = benchmark::Counter(
        static_cast<double>(kGroup) * 1e-9,
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_QuantizeActivations, fp16, ActFormat::FP16);
BENCHMARK_CAPTURE(BM_QuantizeActivations, bf16, ActFormat::BF16);

/**
 * One activation column of the Simd FIGLUT-I GEMMs of a 2-layer
 * h=128 decoder (the perfbench model: QKV 384x128, out-proj 128x128,
 * FC1 512x128, FC2 128x512 per layer; q4 with offsets, one scale group
 * per row, mu 4, FP16 activations, FP32 arithmetic), split into the
 * stages lutGemm runs for it. Each stage repeats the kernel's work for
 * the column through the same library calls:
 *   0 round     quantizeToFormat of every activation: the rounding
 *               share of stage 1, which rounds each activation once
 *   1 align     preAlignInto of each GEMM's raw activation column
 *   2 lutgen    generateFullIntInto for every mu-chunk
 *   3 reads     the dispatched accumIntSpan walk per (GEMM, plane)
 *   4 epilogue  the dispatched alpha and offset folds, then the
 *               scalar y fold
 *   5 column    the whole lutGemm calls (threads 1, packed keys)
 *   6 blocked   the dispatched accumIntSpanCols walk per (GEMM, plane)
 *               over a block of kSpanCols columns with their own
 *               tables, run once every kSpanCols iterations
 *   7 4-col     whole lutGemm calls over 4 columns, run once every 4
 *               iterations (one column block)
 *   8 11-col    whole lutGemm calls over 11 columns, run once every
 *               11 iterations (two full blocks and a 3-column tail)
 * ns_per_iter is one column (stages 6-8: one column's share of the
 * block walk or of the multi-column calls, so stage 6 reads directly
 * against stage 3 and stages 7-8 against stage 5). Stages 1-4 sum to
 * roughly stage 5; the rest is per-call setup.
 */
void
BM_GemmColumnStage(benchmark::State &state)
{
    static const std::size_t kShapes[][2] = {
        {384, 128}, {128, 128}, {512, 128}, {128, 512}};
    struct Gemm
    {
        BcqTensor w;
        PackedLutKeys keys;
        MatrixD x;
        std::vector<int64_t> mant; // aligned mantissas, whole chunks
        double scale = 1.0;
        std::vector<int64_t> arena; // decoded 2^mu tables, one per chunk
        std::vector<std::vector<int64_t>> psums; // per plane
        double sumx = 0.0;
        // Stage 6: kSpanCols columns' tables and plane sums.
        std::vector<std::vector<int64_t>> blockArenas, blockPsums;
        MatrixD xWide; // stages 7-8: the multi-column call's input
    };
    static const std::size_t kWideCols[] = {4, 11};
    LutGemmConfig cfg;
    cfg.preAligned = true;
    cfg.backend = LutGemmBackend::Simd;
    cfg.threads = 1;
    const LutGenerator gen(cfg.mu, cfg.arith);
    const std::size_t entries = lutEntries(cfg.mu);
    const SimdKernels &simd = simdKernels();
    Rng rng(12);
    Rng blockRng(13); // stage 6's columns; rng's draws stay as they were
    Rng wideRng(14);  // stages 7-8's columns
    const auto stage = state.range(0);
    const std::size_t wideCols = kWideCols[stage == 8 ? 1 : 0];
    std::vector<Gemm> gemms;
    for (int layer = 0; layer < 2; ++layer) {
        for (const auto &shape : kShapes) {
            Gemm g;
            g.w = benchTensor(shape[0], shape[1], 4);
            g.keys = packLutKeys(g.w, cfg.mu);
            g.x = syntheticActivations(shape[1], 1, rng);
            g.mant.assign(g.keys.totalChunks * cfg.mu, 0);
            const AlignHeader header = preAlignInto(
                g.x.data(), shape[1], 1, cfg.actFormat, cfg.alignFracBits,
                AlignRounding::NearestEven, g.mant.data());
            g.scale = alignScale(header.sharedExp, cfg.alignFracBits);
            g.arena.resize(g.keys.totalChunks * entries);
            for (std::size_t ch = 0; ch < g.keys.totalChunks; ++ch)
                gen.generateFullIntInto(g.mant.data() + ch * cfg.mu,
                                        g.arena.data() + ch * entries);
            int64_t sum_mant = 0;
            for (const int64_t v : g.mant)
                sum_mant += v;
            g.sumx = static_cast<double>(sum_mant) * g.scale;
            for (int i = 0; i < g.w.bits; ++i) {
                g.psums.emplace_back(shape[0], 0);
                simd.accumIntSpan(g.psums.back().data(), g.arena.data(),
                                  entries, g.keys.chunkKeys(i, 0),
                                  shape[0], g.keys.totalChunks, shape[0]);
            }
            const auto xBlock =
                syntheticActivations(shape[1], kSpanCols, blockRng);
            std::vector<int64_t> mant(g.mant.size(), 0);
            for (std::size_t j = 0; j < kSpanCols; ++j) {
                preAlignInto(xBlock.data() + j, shape[1], kSpanCols,
                             cfg.actFormat, cfg.alignFracBits,
                             AlignRounding::NearestEven, mant.data());
                g.blockArenas.emplace_back(g.arena.size());
                for (std::size_t ch = 0; ch < g.keys.totalChunks; ++ch)
                    gen.generateFullIntInto(
                        mant.data() + ch * cfg.mu,
                        g.blockArenas.back().data() + ch * entries);
                g.blockPsums.emplace_back(shape[0], 0);
            }
            g.xWide = syntheticActivations(shape[1], wideCols, wideRng);
            gemms.push_back(std::move(g));
        }
    }
    ExecutionContext ctx(1);
    std::vector<double> xq, acc, y;
    std::vector<int64_t> psum;
    std::size_t tick = 0;
    for (auto _ : state) {
        const bool blockTurn = tick % kSpanCols == 0;
        const bool wideTurn = tick++ % wideCols == 0;
        for (Gemm &g : gemms) {
            const std::size_t m = g.w.rows, n = g.w.cols;
            switch (stage) {
              case 0:
                xq.resize(n);
                for (std::size_t c = 0; c < n; ++c)
                    xq[c] = quantizeToFormat(g.x(c, 0), cfg.actFormat);
                benchmark::DoNotOptimize(xq.data());
                break;
              case 1:
                preAlignInto(g.x.data(), n, 1, cfg.actFormat,
                             cfg.alignFracBits, AlignRounding::NearestEven,
                             g.mant.data());
                benchmark::DoNotOptimize(g.mant.data());
                break;
              case 2:
                for (std::size_t ch = 0; ch < g.keys.totalChunks; ++ch)
                    gen.generateFullIntInto(g.mant.data() + ch * cfg.mu,
                                            g.arena.data() + ch * entries);
                break;
              case 3:
                psum.assign(m, 0);
                for (int i = 0; i < g.w.bits; ++i)
                    simd.accumIntSpan(psum.data(), g.arena.data(), entries,
                                      g.keys.chunkKeys(i, 0), m,
                                      g.keys.totalChunks, m);
                benchmark::DoNotOptimize(psum.data());
                break;
              case 4:
                acc.assign(m, 0.0);
                y.assign(m, 0.0);
                for (int i = 0; i < g.w.bits; ++i)
                    simd.foldIntPlaneFp32(acc.data(), g.w.alphas[i].data(),
                                          g.psums[i].data(), g.scale, m);
                simd.foldOffsetFp32(acc.data(), g.w.offsets.data(), g.sumx,
                                    m);
                for (std::size_t r = 0; r < m; ++r)
                    y[r] = fpAdd(y[r], acc[r], cfg.arith);
                benchmark::DoNotOptimize(y.data());
                break;
              case 6: {
                if (!blockTurn)
                    break;
                int64_t *psums[kSpanCols];
                const int64_t *luts[kSpanCols];
                for (std::size_t j = 0; j < kSpanCols; ++j) {
                    g.blockPsums[j].assign(m, 0);
                    psums[j] = g.blockPsums[j].data();
                    luts[j] = g.blockArenas[j].data();
                }
                for (int i = 0; i < g.w.bits; ++i)
                    simd.accumIntSpanCols(psums, luts, entries,
                                          g.keys.chunkKeys(i, 0), m,
                                          g.keys.totalChunks, m, kSpanCols);
                benchmark::DoNotOptimize(psums[0]);
                break;
              }
              case 5: {
                auto out = lutGemm(g.w, g.x, cfg, g.keys, nullptr, &ctx);
                benchmark::DoNotOptimize(out.data());
                break;
              }
              case 7:
              case 8: {
                if (!wideTurn)
                    break;
                auto out =
                    lutGemm(g.w, g.xWide, cfg, g.keys, nullptr, &ctx);
                benchmark::DoNotOptimize(out.data());
              }
            }
        }
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_GemmColumnStage)
    ->ArgName("stage")
    ->DenseRange(0, 8)
    ->Unit(benchmark::kMicrosecond);

/**
 * Chunk-causal attention over stride-1 tokens: one span per entry of
 * `spanTokens` (P tokens, `columns` query columns each, so column j
 * attends to the first P - columns + j + 1 of them), hidden h split
 * into 4 heads. Items are attended (column, token) pairs per
 * head-set.
 */
void
runChunkAttention(benchmark::State &state,
                  const std::vector<std::size_t> &spanTokens,
                  std::size_t columns, std::size_t h)
{
    const std::size_t heads = 4;
    Rng rng(31);
    MatrixD q(h, columns * spanTokens.size());
    for (auto &v : q)
        v = rng.normal();
    std::vector<std::vector<double>> slabs;
    std::vector<std::vector<KvTokenRef>> tokens;
    std::vector<AttentionSpan> spans;
    std::size_t pairs = 0;
    for (const std::size_t P : spanTokens) {
        slabs.emplace_back(P * 2 * h);
        for (auto &v : slabs.back())
            v = rng.normal();
        tokens.emplace_back(P);
        for (std::size_t t = 0; t < P; ++t)
            tokens.back()[t] =
                KvTokenRef{slabs.back().data() + t * 2 * h,
                           slabs.back().data() + t * 2 * h + h, 1};
        spans.push_back(AttentionSpan{tokens.back().data(), P,
                                      spans.size() * columns, columns});
        pairs += columns * (P - columns) + columns * (columns + 1) / 2;
    }
    for (auto _ : state) {
        auto out = referenceChunkAttention(q, spans, heads);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * pairs));
}

/**
 * One span of C query columns over P tokens at the perfbench model's
 * shape (h = 128, 4 heads of 32). C = 128 is a longdoc prefill chunk;
 * C = 1 is a decode step.
 */
void
BM_ChunkAttention(benchmark::State &state)
{
    runChunkAttention(state, {static_cast<std::size_t>(state.range(1))},
                      static_cast<std::size_t>(state.range(0)), 128);
}
BENCHMARK(BM_ChunkAttention)
    ->Args({128, 256})
    ->Args({128, 1024})
    ->Args({1, 600})
    ->Unit(benchmark::kMicrosecond);

/** The C = 128, P = 1024 chunk at head dim 64 (h = 256, 4 heads). */
void
BM_ChunkAttentionHeadDim64(benchmark::State &state)
{
    runChunkAttention(state, {1024}, 128, 256);
}
BENCHMARK(BM_ChunkAttentionHeadDim64)->Unit(benchmark::kMicrosecond);

/**
 * A chat decode step's attention: 8 one-column spans over 64..127
 * tokens (the perfbench shape, head dim 32).
 */
void
BM_ChunkAttentionDecode(benchmark::State &state)
{
    std::vector<std::size_t> spanTokens;
    for (std::size_t s = 0; s < 8; ++s)
        spanTokens.push_back(64 + 9 * s);
    runChunkAttention(state, spanTokens, 1, 128);
}
BENCHMARK(BM_ChunkAttentionDecode)->Unit(benchmark::kMicrosecond);

/**
 * referenceGelu over the longdoc FC1 output (512 x 56: the perfbench
 * model's FFN width by a step's columns) on the active SIMD table.
 */
void
BM_Gelu(benchmark::State &state)
{
    Rng rng(27);
    MatrixD x(512, 56);
    for (auto &v : x)
        v = rng.normal() * 2.0;
    for (auto _ : state) {
        auto out = referenceGelu(x);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * x.size()));
}
BENCHMARK(BM_Gelu)->Unit(benchmark::kMicrosecond);

void
BM_SimulateGemm(benchmark::State &state)
{
    HwConfig hw;
    hw.engine = EngineKind::FIGLUT_I;
    GemmShape s;
    s.m = 16384;
    s.n = 4096;
    s.batch = 32;
    s.weightBits = 4;
    for (auto _ : state) {
        auto r = simulateGemm(hw, s);
        benchmark::DoNotOptimize(r.topsPerWatt);
    }
}
BENCHMARK(BM_SimulateGemm);

void
BM_DetailedSystolicTile(benchmark::State &state)
{
    Rng rng(7);
    SystolicSim sim({16, 16});
    Matrix<int32_t> w(16, 16), x(16, 8);
    for (auto &v : w)
        v = static_cast<int32_t>(rng.uniformInt(-8, 7));
    for (auto &v : x)
        v = static_cast<int32_t>(rng.uniformInt(-100, 100));
    for (auto _ : state) {
        auto run = sim.runTile(w, x);
        benchmark::DoNotOptimize(run.outputs.data());
    }
    state.SetItemsProcessed(state.iterations() * 16 * 16 * 8);
}
BENCHMARK(BM_DetailedSystolicTile);

/**
 * Console reporter that additionally captures every per-iteration run
 * into JsonBenchRecords for the --json output mode.
 */
class JsonCaptureReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        // Only plain iteration runs are recorded (no aggregates). No
        // error filter: these benchmarks never SkipWithError, and the
        // error field's API changed across google-benchmark versions.
        for (const auto &run : runs) {
            if (run.run_type != Run::RT_Iteration)
                continue;
            figlut::bench::JsonBenchRecord rec;
            rec.name = run.benchmark_name();
            rec.nsPerIter =
                run.iterations > 0
                    ? run.real_accumulated_time * 1e9 /
                          static_cast<double>(run.iterations)
                    : run.real_accumulated_time * 1e9;
            const auto it = run.counters.find("lut_reads_per_s");
            if (it != run.counters.end())
                rec.lutReadsPerS = it->second.value;
            const auto tok = run.counters.find("tokens_per_s");
            if (tok != run.counters.end())
                rec.tokensPerS = tok->second.value;
            const auto liveIt = run.counters.find("live_requests");
            if (liveIt != run.counters.end())
                rec.liveRequests = liveIt->second.value;
            // Any counter outside the fixed record fields rides along
            // in the flat extras (e.g. decode_tokens_per_s).
            for (const auto &[name, counter] : run.counters) {
                if (name == "lut_reads_per_s" ||
                    name == "tokens_per_s" || name == "live_requests")
                    continue;
                rec.extra.emplace_back(name, counter.value);
            }
            records_.push_back(std::move(rec));
        }
        ConsoleReporter::ReportRuns(runs);
    }

    const std::vector<figlut::bench::JsonBenchRecord> &
    records() const
    {
        return records_;
    }

  private:
    std::vector<figlut::bench::JsonBenchRecord> records_;
};

} // namespace

int
main(int argc, char **argv)
{
    // Peel our own --json <path> flag off before handing the argv to
    // google-benchmark, which rejects flags it does not know.
    std::string json_path;
    std::vector<char *> args;
    args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            args.push_back(argv[i]);
        }
    }
    int bench_argc = static_cast<int>(args.size());
    benchmark::Initialize(&bench_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
        return 1;

    if (json_path.empty()) {
        benchmark::RunSpecifiedBenchmarks();
    } else {
        JsonCaptureReporter reporter;
        benchmark::RunSpecifiedBenchmarks(&reporter);
        // Calibrate the roofline ceiling once (CI smoke sizing) and
        // stamp every record that reports a LUT read rate with the
        // measured bandwidth and its roofline fraction: a RAC read
        // moves kLutReadBytes, so frac = reads/s * bytes-per-read
        // divided by the best STREAM rate. bench_stream is the
        // full-size standalone calibration.
        const auto bw = figlut::bench::measureStreamBandwidth(
            std::size_t{1} << 21, 3);
        auto records = reporter.records();
        for (auto &rec : records) {
            if (rec.lutReadsPerS <= 0.0 || bw.best() <= 0.0)
                continue;
            rec.extra.emplace_back("mem_bw_bytes_per_s", bw.best());
            rec.extra.emplace_back(
                "roofline_frac", rec.lutReadsPerS *
                                     figlut::bench::kLutReadBytes /
                                     bw.best());
        }
        figlut::bench::writeBenchJson(json_path, records);
    }
    benchmark::Shutdown();
    return 0;
}
