/**
 * @file
 * Differential tests for the Simd LUT-GEMM backend and the runtime
 * ISA dispatcher: the column prologue, span kernels, epilogue folds,
 * flat vector entries and attention head kernel of every ISA against
 * the scalar table, Reference-vs-Simd bit-identity under every ISA over randomized
 * shapes and configs, cross-ISA bit-identity under forced
 * dispatch, counter equivalence, pre-packed key reuse, and the
 * guarantee that dispatch never selects an ISA the binary was not
 * compiled with (the CI scalar-build leg runs these same tests with
 * FIGLUT_SIMD_AVX2=OFF).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/engine_numerics.h"
#include "core/execution_context.h"
#include "core/lut_gemm.h"
#include "core/simd.h"
#include "model/synthetic.h"
#include "quant/packing.h"
#include "simd_kernel_checks.h"

namespace figlut {
namespace {

struct GemmCase
{
    BcqTensor weights;
    MatrixD x;
};

GemmCase
makeCase(std::size_t m, std::size_t n, std::size_t batch, int bits,
         std::size_t group, bool offset, uint64_t seed)
{
    Rng rng(seed);
    GemmCase tc;
    const auto w = syntheticWeights(m, n, rng);
    BcqConfig cfg;
    cfg.bits = bits;
    cfg.groupSize = group;
    cfg.useOffset = offset;
    cfg.iterations = 3;
    tc.weights = quantizeBcq(w, cfg);
    tc.x = syntheticActivations(n, batch, rng);
    return tc;
}

MatrixD
runBackend(const GemmCase &tc, LutGemmConfig cfg, LutGemmBackend backend,
           LutGemmCounters *counters = nullptr)
{
    cfg.backend = backend;
    return lutGemm(tc.weights, tc.x, cfg, counters);
}

/** Every non-scalar ISA; loops skip the ones this binary/host lacks. */
const SimdIsa kVectorIsas[] = {SimdIsa::Avx2, SimdIsa::Neon,
                               SimdIsa::Avx512};

/** Restore the dispatcher's environment selection on scope exit. */
struct IsaOverrideGuard
{
    explicit IsaOverrideGuard(SimdIsa isa) { setSimdIsaOverride(isa); }
    ~IsaOverrideGuard() { clearSimdIsaOverride(); }
};

// ----------------------------------------------------- dispatch layer

TEST(SimdDispatch, NamesCodesAndParsingRoundTrip)
{
    for (const auto isa : {SimdIsa::Scalar, SimdIsa::Avx2, SimdIsa::Neon,
                           SimdIsa::Avx512}) {
        SimdIsa parsed = SimdIsa::Scalar;
        EXPECT_TRUE(parseSimdIsa(simdIsaName(isa), &parsed));
        EXPECT_EQ(parsed, isa);
    }
    EXPECT_EQ(simdIsaCode(SimdIsa::Scalar), 0);
    EXPECT_EQ(simdIsaCode(SimdIsa::Avx2), 1);
    EXPECT_EQ(simdIsaCode(SimdIsa::Neon), 2);
    EXPECT_EQ(simdIsaCode(SimdIsa::Avx512), 3);
    SimdIsa parsed = SimdIsa::Scalar;
    EXPECT_FALSE(parseSimdIsa("sse2", &parsed));
    EXPECT_FALSE(parseSimdIsa("auto", &parsed));
    EXPECT_FALSE(parseSimdIsa("", &parsed));
}

TEST(SimdDispatch, ActiveIsaIsAlwaysSupported)
{
    EXPECT_TRUE(simdIsaSupported(activeSimdIsa()));
    EXPECT_TRUE(simdIsaSupported(detectSimdIsa()));
    EXPECT_TRUE(simdIsaSupported(SimdIsa::Scalar));
    // Supported implies compiled-in by definition.
    for (const auto isa : kVectorIsas) {
        if (simdIsaSupported(isa)) {
            EXPECT_TRUE(simdIsaCompiled(isa));
        }
    }
}

/**
 * The compile-guard contract CI's scalar-build leg exercises: when
 * the AVX2/NEON kernels are not compiled in (FIGLUT_SIMD_*=OFF or a
 * foreign architecture), even a forced override must clamp to Scalar
 * — dispatch can never select code the binary lacks.
 */
TEST(SimdDispatch, OverrideClampsToCompiledIsas)
{
    for (const auto isa : kVectorIsas) {
        const SimdIsa got = setSimdIsaOverride(isa);
        if (!simdIsaCompiled(isa)) {
            EXPECT_EQ(got, SimdIsa::Scalar) << simdIsaName(isa);
            EXPECT_NE(activeSimdIsa(), isa) << simdIsaName(isa);
        } else if (simdIsaSupported(isa)) {
            EXPECT_EQ(got, isa) << simdIsaName(isa);
            EXPECT_EQ(activeSimdIsa(), isa) << simdIsaName(isa);
        } else {
            EXPECT_EQ(got, SimdIsa::Scalar) << simdIsaName(isa);
        }
        clearSimdIsaOverride();
    }
    // The kernel table always reports the ISA it was selected for.
    EXPECT_EQ(simdKernels().isa, activeSimdIsa());
    EXPECT_EQ(simdKernelsFor(SimdIsa::Scalar).isa, SimdIsa::Scalar);
}

// ------------------------------------------------------- span kernels

/**
 * The span kernels of every supported ISA against the scalar table,
 * called directly: every table width mu in [1, kMaxMu] (the AVX-512
 * register path up to 16 entries, the gather fallback above), row
 * counts around the 4/8/32-row blocks, zero/one/many chunks, and
 * padded key strides. Each arena ends at a guard page and each key
 * array is its own exact-size vector, so a read past the last chunk's
 * slab faults and a read past the last key trips the sanitizer build.
 *
 * The multi-column span runs for 1..kSpanCols columns with distinct
 * per-column tables (each on its own guard page) and seeds, for mu in
 * [1, 5] (mu = 5 is the first table too wide for registers), and every
 * column must equal the scalar single-column span on that column.
 */
TEST(SimdSpanKernels, EveryIsaMatchesScalarTable)
{
    const SimdKernels &scalar = simdKernelsFor(SimdIsa::Scalar);
    Rng rng(2800);
    // Scalar too: its multi-column span must equal its own single one.
    for (const auto isa : {SimdIsa::Scalar, SimdIsa::Avx2, SimdIsa::Neon,
                           SimdIsa::Avx512}) {
        if (!simdIsaSupported(isa))
            continue;
        const SimdKernels &vec = simdKernelsFor(isa);
        ASSERT_EQ(vec.isa, isa);
        for (int mu = 1; mu <= kMaxMu; ++mu) {
            const std::size_t lutStride = std::size_t{1} << mu;
            for (const std::size_t chunks : {0, 1, 2, 33}) {
                GuardPagedArray<std::int64_t> intLut(chunks * lutStride);
                const bool multiCol = mu <= 5;
                std::vector<std::unique_ptr<GuardPagedArray<std::int64_t>>>
                    colLuts;
                const std::int64_t *colLut[kSpanCols] = {};
                for (std::size_t j = 0; multiCol && j < kSpanCols; ++j) {
                    colLuts.push_back(
                        std::make_unique<GuardPagedArray<std::int64_t>>(
                            chunks * lutStride));
                    for (std::size_t e = 0; e < chunks * lutStride; ++e)
                        (*colLuts.back())[e] = rng.uniformInt(
                            -(int64_t{1} << 40), int64_t{1} << 40);
                    colLut[j] = colLuts.back()->data();
                }
                for (std::size_t e = 0; e < intLut.size(); ++e)
                    intLut[e] = rng.uniformInt(-(int64_t{1} << 40),
                                               int64_t{1} << 40);
                for (std::size_t n = 0; n <= 70; ++n) {
                    for (const std::size_t keyStride : {n, n + 5}) {
                        std::vector<std::uint32_t> keys(
                            chunks == 0 ? 0
                                        : (chunks - 1) * keyStride + n);
                        for (auto &k : keys)
                            k = static_cast<std::uint32_t>(rng.uniformInt(
                                0, static_cast<int64_t>(lutStride) - 1));
                        std::vector<std::int64_t> intSeed(n);
                        for (auto &v : intSeed)
                            v = rng.uniformInt(-1000000, 1000000);
                        const std::string what =
                            std::string(simdIsaName(isa)) +
                            " mu=" + std::to_string(mu) +
                            " chunks=" + std::to_string(chunks) +
                            " n=" + std::to_string(n) +
                            " keyStride=" + std::to_string(keyStride);

                        auto want = intSeed, got = intSeed;
                        scalar.accumIntSpan(want.data(), intLut.data(),
                                            lutStride, keys.data(),
                                            keyStride, chunks, n);
                        vec.accumIntSpan(got.data(), intLut.data(),
                                         lutStride, keys.data(), keyStride,
                                         chunks, n);
                        EXPECT_EQ(firstBitMismatch(got, want), n)
                            << "int " << what;

                        if (!multiCol)
                            continue;
                        for (std::size_t cols = 1; cols <= kSpanCols;
                             ++cols) {
                            std::vector<std::vector<std::int64_t>> colWant,
                                colGot;
                            std::int64_t *gotPtr[kSpanCols] = {};
                            for (std::size_t j = 0; j < cols; ++j) {
                                std::vector<std::int64_t> seed(n);
                                for (auto &v : seed)
                                    v = rng.uniformInt(-1000000, 1000000);
                                colWant.push_back(seed);
                                colGot.push_back(seed);
                            }
                            for (std::size_t j = 0; j < cols; ++j) {
                                scalar.accumIntSpan(colWant[j].data(),
                                                    colLut[j], lutStride,
                                                    keys.data(), keyStride,
                                                    chunks, n);
                                gotPtr[j] = colGot[j].data();
                            }
                            vec.accumIntSpanCols(gotPtr, colLut, lutStride,
                                                 keys.data(), keyStride,
                                                 chunks, n, cols);
                            for (std::size_t j = 0; j < cols; ++j)
                                EXPECT_EQ(
                                    firstBitMismatch(colGot[j], colWant[j]),
                                    n)
                                    << "int cols=" << cols << " column "
                                    << j << " " << what;
                        }
                    }
                }
            }
        }
    }
}

/**
 * The FIGLUT-I column prologue of every supported ISA against the
 * scalar table (simd_kernel_checks.h): n = 0..1100 at strides 1 and 11,
 * FP16, BF16 and FP32, fracBits 2-60, mu 1-8, with zeros, subnormals,
 * binade carries and ties, on guard pages; and its fatal inputs.
 */
TEST(SimdPrologue, EveryIsaMatchesScalarTable)
{
    Rng rng(5000);
    expectPrologueRejectsLikeScalar(simdKernelsFor(SimdIsa::Scalar),
                                    "scalar");
    for (const auto isa : kVectorIsas) {
        if (!simdIsaSupported(isa))
            continue;
        const SimdKernels &vec = simdKernelsFor(isa);
        ASSERT_EQ(vec.isa, isa);
        expectPrologueMatchesScalar(vec, simdIsaName(isa), rng);
        expectPrologueRejectsLikeScalar(vec, simdIsaName(isa));
    }
}

/**
 * A non-finite activation stays fatal through the Simd backend's
 * prologue under every ISA, as it is through Reference's preAlignInto.
 */
TEST(SimdPrologue, NonFiniteActivationIsFatalThroughSimdBackend)
{
    GemmCase tc = makeCase(40, 64, 3, 3, 64, true, 5100);
    LutGemmConfig cfg;
    cfg.preAligned = true;
    cfg.threads = 1;
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             1e6 /* rounds to inf in FP16 */}) {
        GemmCase bent = tc;
        bent.x(17, 1) = bad;
        EXPECT_THROW(runBackend(bent, cfg, LutGemmBackend::Reference),
                     FatalError);
        for (const auto isa : {SimdIsa::Scalar, SimdIsa::Avx2,
                               SimdIsa::Neon, SimdIsa::Avx512}) {
            if (!simdIsaSupported(isa))
                continue;
            IsaOverrideGuard guard(isa);
            EXPECT_THROW(runBackend(bent, cfg, LutGemmBackend::Simd),
                         FatalError)
                << simdIsaName(isa) << " " << bad;
        }
    }
}

/**
 * The epilogue folds of every supported ISA against the scalar table
 * (simd_kernel_checks.h), on guard-paged inputs for n = 0..70.
 */
TEST(SimdEpilogue, EveryIsaMatchesScalarTable)
{
    Rng rng(4500);
    for (const auto isa : kVectorIsas) {
        if (!simdIsaSupported(isa))
            continue;
        const SimdKernels &vec = simdKernelsFor(isa);
        ASSERT_EQ(vec.isa, isa);
        expectFoldsMatchScalar(vec, simdIsaName(isa), rng);
    }
}

/**
 * addFlat, sumLanes, sumSqDevLanes, normalizeFlat and geluFlat of
 * every supported ISA against the scalar table (simd_kernel_checks.h):
 * n = 0..70, finite values of wide range, signed zeros, NaN, +-1000
 * and GELU's curved range, on guard pages.
 */
TEST(SimdFlatKernels, EveryIsaMatchesScalarTable)
{
    Rng rng(4700);
    for (const auto isa : kVectorIsas) {
        if (!simdIsaSupported(isa))
            continue;
        const SimdKernels &vec = simdKernelsFor(isa);
        ASSERT_EQ(vec.isa, isa);
        expectFlatEntriesMatchScalar(vec, simdIsaName(isa), rng);
    }
}

/**
 * The attention head kernel of every supported ISA against the scalar
 * table, called directly: head dims below, at and off a vector
 * multiple (the compile-time 32 and 64 included), column counts
 * around the 8-column score block and the 4-column blend tile, and
 * token counts off a multiple of 8. The K rows, the V rows, the
 * queries, the output and the scores scratch each end at a guard
 * page, so a read or write past any of them faults in every build
 * (sanitizers do not see masked vector loads).
 */
TEST(SimdAttentionKernel, EveryIsaMatchesScalarTable)
{
    const SimdKernels &scalar = simdKernelsFor(SimdIsa::Scalar);
    struct Shape
    {
        std::size_t columns, held;
    };
    const Shape shapes[] = {{1, 0},  {1, 7},  {1, 64}, {3, 5},
                            {4, 9},  {7, 9},  {8, 0},  {8, 13},
                            {9, 4},  {12, 21}, {17, 3}, {24, 40}};
    Rng rng(5100);
    for (const auto isa : kVectorIsas) {
        if (!simdIsaSupported(isa))
            continue;
        const SimdKernels &vec = simdKernelsFor(isa);
        ASSERT_EQ(vec.isa, isa);
        for (const std::size_t headDim : {1, 3, 8, 12, 32, 33, 64}) {
            for (const Shape &sh : shapes) {
                const std::size_t C = sh.columns;
                const std::size_t P = sh.held + C;
                // A tight query/output stride, or a wider matrix.
                const std::size_t stride = C + (headDim % 2) * 3;
                GuardPagedArray<double> kRows(P * headDim),
                    vRows(P * headDim), q(headDim * stride),
                    scores(kAttnBlockCols * P);
                for (std::size_t i = 0; i < P * headDim; ++i) {
                    kRows[i] = rng.normal();
                    vRows[i] = rng.normal();
                }
                for (std::size_t i = 0; i < q.size(); ++i)
                    q[i] = rng.normal();
                std::vector<const double *> k(P), v(P);
                for (std::size_t t = 0; t < P; ++t) {
                    k[t] = kRows.data() + t * headDim;
                    v[t] = vRows.data() + t * headDim;
                }
                const auto run = [&](const SimdKernels &kern) {
                    GuardPagedArray<double> out(headDim * stride);
                    AttentionHead head;
                    head.q = q.data();
                    head.qStride = stride;
                    head.k = k.data();
                    head.v = v.data();
                    head.tokens = P;
                    head.columns = C;
                    head.headDim = headDim;
                    head.scale =
                        1.0 / std::sqrt(static_cast<double>(headDim));
                    head.scores = scores.data();
                    head.out = out.data();
                    head.outStride = stride;
                    kern.attentionHead(head);
                    std::vector<double> got;
                    for (std::size_t d = 0; d < headDim; ++d)
                        for (std::size_t j = 0; j < C; ++j)
                            got.push_back(out[d * stride + j]);
                    return got;
                };
                const auto want = run(scalar);
                const auto got = run(vec);
                EXPECT_EQ(firstBitMismatch(got, want), want.size())
                    << simdIsaName(isa) << " headDim=" << headDim
                    << " C=" << C << " held=" << sh.held;
            }
        }
    }
}

// ------------------------------------------ Reference-vs-Simd identity

/**
 * The randomized Reference-vs-Simd differential suite: odd shapes,
 * tail chunks, mu in [1, kMaxMu], offset/half-LUT/generator on/off,
 * both numeric paths, every activation format, every FpArith
 * accumulate mode (the FP path takes the scalar chunk walk), and 1-8
 * workers over 1-72-row tiles. Every Simd call runs once per
 * supported ISA, Scalar included, and all of them must equal
 * Reference bit for bit. Their closed-form counters, and
 * addLutGemmClosedFormCounters(), must equal Reference's per-read
 * counts. Draws `trials` configurations from `shape_seed`; trial t
 * quantizes its tensor with seed `case_seed + t`.
 */
void
expectRandomizedSimdMatchesReference(uint64_t shape_seed,
                                     uint64_t case_seed, int trials)
{
    Rng shapes(shape_seed);
    const FpArith ariths[] = {FpArith::Fp32, FpArith::Exact,
                              FpArith::Fp16, FpArith::Bf16};
    std::vector<SimdIsa> isas = {SimdIsa::Scalar};
    for (const auto isa : kVectorIsas)
        if (simdIsaSupported(isa))
            isas.push_back(isa);
    for (int trial = 0; trial < trials; ++trial) {
        const auto m = static_cast<std::size_t>(shapes.uniformInt(1, 70));
        const auto n = static_cast<std::size_t>(shapes.uniformInt(1, 90));
        const auto batch =
            static_cast<std::size_t>(shapes.uniformInt(1, 5));
        const int bits = static_cast<int>(shapes.uniformInt(1, 4));
        const bool grouped = shapes.uniformInt(0, 1) == 1;
        const std::size_t group =
            grouped ? static_cast<std::size_t>(
                          shapes.uniformInt(1, static_cast<int64_t>(n)))
                    : 0;
        const bool offset = shapes.uniformInt(0, 1) == 1;

        LutGemmConfig cfg;
        cfg.mu = static_cast<int>(shapes.uniformInt(1, kMaxMu));
        cfg.useHalfLut = cfg.mu >= 2 && shapes.uniformInt(0, 1) == 1;
        cfg.useGeneratorTree = shapes.uniformInt(0, 1) == 1;
        cfg.preAligned = shapes.uniformInt(0, 1) == 1;
        cfg.arith = ariths[shapes.uniformInt(0, 3)];
        cfg.actFormat = kAllActFormats[shapes.uniformInt(0, 2)];
        cfg.threads = static_cast<int>(shapes.uniformInt(1, 8));
        // Up to 72 rows per tile: past one 32-row AVX-512 block, and
        // past m (a single tile) in some trials.
        cfg.blockRows = static_cast<int>(shapes.uniformInt(1, 72));

        const auto tc = makeCase(m, n, batch, bits, group, offset,
                                 case_seed + static_cast<uint64_t>(trial));
        const std::string what =
            "trial " + std::to_string(trial) + ": " + std::to_string(m) +
            "x" + std::to_string(n) + " batch " + std::to_string(batch) +
            " bits " + std::to_string(bits) + " group " +
            std::to_string(group) + " offset " + std::to_string(offset) +
            " mu " + std::to_string(cfg.mu) + " half " +
            std::to_string(cfg.useHalfLut) + " tree " +
            std::to_string(cfg.useGeneratorTree) + " pre " +
            std::to_string(cfg.preAligned) + " arith " +
            std::to_string(static_cast<int>(cfg.arith)) + " act " +
            std::to_string(static_cast<int>(cfg.actFormat)) + " threads " +
            std::to_string(cfg.threads) + " blockRows " +
            std::to_string(cfg.blockRows);
        LutGemmCounters refCnt, closedForm;
        const auto ref =
            runBackend(tc, cfg, LutGemmBackend::Reference, &refCnt);
        addLutGemmClosedFormCounters(tc.weights, cfg, batch, closedForm);
        EXPECT_EQ(closedForm, refCnt) << what;

        for (const auto isa : isas) {
            IsaOverrideGuard guard(isa);
            LutGemmCounters simdCnt;
            const auto simd =
                runBackend(tc, cfg, LutGemmBackend::Simd, &simdCnt);
            EXPECT_TRUE(compareMatrices(simd, ref).identical)
                << what << " isa " << simdIsaName(isa);
            EXPECT_EQ(simdCnt, refCnt)
                << what << " isa " << simdIsaName(isa);
        }
    }
}

// Three seeded draws of 16 trials each. Each draw keeps the name and
// seeds of the per-backend differential suite it grew out of.

TEST(SimdGemm, RandomizedFourBackendBitIdentity)
{
    expectRandomizedSimdMatchesReference(2001, 2100, 16);
}

TEST(LutGemmPacked, RandomizedDifferentialSuite)
{
    expectRandomizedSimdMatchesReference(1003, 1100, 16);
}

TEST(LutGemmThreaded, RandomizedShapesDifferential)
{
    expectRandomizedSimdMatchesReference(904, 905, 16);
}

/**
 * Cross-ISA pin: the same Simd call must produce the same bits under
 * every dispatchable ISA, scalar included — the scalar fallback is
 * not approximately equal, it IS the contract. Batches 1..9 run every
 * partial column block (1, 2 and 3 columns) and up to two full
 * kSpanCols blocks, at one worker and two.
 */
TEST(SimdGemm, ForcedIsaSweepIsBitIdentical)
{
    struct Input
    {
        std::size_t m;
        int blockRows;
        std::size_t group;
        uint64_t seed;
    };
    // blockRows 8 keeps every tile below one 32-row AVX-512 block;
    // 70 rows in 64-row tiles run two register blocks plus tails. The
    // single 70-row tile over five 16-column groups runs the epilogue
    // folds on staged (strided) alpha and offset columns, through
    // seventeen full 4-row vectors and a 2-row tail.
    for (const Input in : {Input{33, 8, 24, 2200}, Input{70, 64, 24, 2210},
                           Input{70, 72, 16, 2220}}) {
        for (std::size_t batch = 1; batch <= 9; ++batch) {
            const auto tc =
                makeCase(in.m, 70, batch, 3, in.group, true, in.seed);
            // FP32 activations make the FP path's Fp32 accumulate round
            // (the FP16 sums of this input fit binary32 exactly), so a
            // Simd call that skips the per-add binary32 rounding shows
            // here.
            for (const auto act : {ActFormat::FP16, ActFormat::FP32}) {
                for (const bool pre : {false, true}) {
                    for (const int threads : {1, 2}) {
                        LutGemmConfig cfg;
                        cfg.backend = LutGemmBackend::Simd;
                        cfg.actFormat = act;
                        cfg.preAligned = pre;
                        cfg.threads = threads;
                        cfg.blockRows = in.blockRows;
                        const std::string what =
                            "m=" + std::to_string(in.m) +
                            " batch=" + std::to_string(batch) +
                            " threads=" + std::to_string(threads) +
                            " pre=" + std::to_string(pre) +
                            " act=" + actFormatName(act);

                        MatrixD baseline;
                        {
                            IsaOverrideGuard guard(SimdIsa::Scalar);
                            baseline = lutGemm(tc.weights, tc.x, cfg);
                        }
                        for (const auto isa : kVectorIsas) {
                            if (!simdIsaSupported(isa))
                                continue;
                            IsaOverrideGuard guard(isa);
                            const auto vec = lutGemm(tc.weights, tc.x, cfg);
                            EXPECT_TRUE(
                                compareMatrices(vec, baseline).identical)
                                << what << " isa=" << simdIsaName(isa);
                        }
                        // And the scalar-forced Simd backend equals
                        // Reference.
                        LutGemmConfig refCfg = cfg;
                        refCfg.backend = LutGemmBackend::Reference;
                        const auto ref = lutGemm(tc.weights, tc.x, refCfg);
                        EXPECT_TRUE(compareMatrices(baseline, ref).identical)
                            << what;
                    }
                }
            }
        }
    }
}

TEST(SimdGemm, ContextReuseIsBitIdentical)
{
    const auto tc = makeCase(40, 64, 2, 2, 16, true, 2300);
    LutGemmConfig cfg;
    cfg.backend = LutGemmBackend::Simd;
    cfg.preAligned = true;
    cfg.threads = 2;
    ExecutionContext ctx;
    const auto fresh = lutGemm(tc.weights, tc.x, cfg);
    for (int call = 0; call < 3; ++call) {
        const auto reused =
            lutGemm(tc.weights, tc.x, cfg, nullptr, &ctx);
        EXPECT_TRUE(compareMatrices(reused, fresh).identical)
            << "call " << call;
    }
}

/**
 * A call that resolves to one worker — threads = 1 over several tiles,
 * or any thread count when every row fits one tile — runs its tiles on
 * the calling thread: bit-identical to Reference, and the context
 * never spawns a pool. The first multi-tile call with two workers on
 * the same context then spawns exactly one.
 */
TEST(SimdGemm, SingleWorkerCallsRunOnCallerWithoutPool)
{
    const auto tc = makeCase(40, 48, 3, 3, 16, true, 2350);
    struct Tiling
    {
        int threads;
        int blockRows;
    };
    const Tiling single[] = {{1, 7}, {4, 40}, {4, 64}};
    for (const bool pre : {false, true}) {
        LutGemmConfig cfg;
        cfg.preAligned = pre;
        const auto ref = runBackend(tc, cfg, LutGemmBackend::Reference);
        cfg.backend = LutGemmBackend::Simd;
        const std::string what = "pre " + std::to_string(pre);

        ExecutionContext ctx;
        for (const Tiling t : single) {
            cfg.threads = t.threads;
            cfg.blockRows = t.blockRows;
            const auto y = lutGemm(tc.weights, tc.x, cfg, nullptr, &ctx);
            EXPECT_TRUE(compareMatrices(y, ref).identical)
                << what << " threads " << t.threads << " blockRows "
                << t.blockRows;
        }
        EXPECT_FALSE(ctx.hasPool()) << what;
        EXPECT_EQ(ctx.poolSpawns(), 0u) << what;

        cfg.threads = 2;
        cfg.blockRows = 8;
        const auto y = lutGemm(tc.weights, tc.x, cfg, nullptr, &ctx);
        EXPECT_TRUE(compareMatrices(y, ref).identical) << what;
        EXPECT_EQ(ctx.poolSpawns(), 1u) << what;
        EXPECT_EQ(ctx.poolThreads(), 2) << what;
    }
}

TEST(SimdGemm, PrepackedKeysReuse)
{
    const auto tc = makeCase(24, 48, 2, 3, 12, true, 2400);
    LutGemmConfig cfg;
    cfg.backend = LutGemmBackend::Simd;
    cfg.preAligned = true;
    cfg.blockRows = 7;
    const auto packedKeys = packLutKeys(tc.weights, cfg.mu);
    const auto internal = lutGemm(tc.weights, tc.x, cfg);
    for (int call = 0; call < 2; ++call) {
        const auto reused = lutGemm(tc.weights, tc.x, cfg, packedKeys);
        EXPECT_TRUE(compareMatrices(reused, internal).identical)
            << "call " << call;
    }
}

// --------------------------------------------------- counter identity

/**
 * Counter equivalence for the Simd path: the closed-form counts of a
 * Simd call must equal those of the pre-packed overload and
 * Reference's per-read counts (both backends build each LUT set once,
 * so every counter is backend-invariant).
 */
TEST(SimdGemm, CountersMatchReferenceAndPacked)
{
    Rng shapes(2500);
    for (int trial = 0; trial < 6; ++trial) {
        const auto m = static_cast<std::size_t>(shapes.uniformInt(1, 50));
        const auto n = static_cast<std::size_t>(shapes.uniformInt(1, 60));
        const auto batch =
            static_cast<std::size_t>(shapes.uniformInt(1, 4));
        const int bits = static_cast<int>(shapes.uniformInt(1, 3));
        const std::size_t group = trial % 2 == 0 ? 0 : 10;
        const bool offset = trial % 2 == 1;

        LutGemmConfig cfg;
        cfg.backend = LutGemmBackend::Simd;
        cfg.mu = static_cast<int>(shapes.uniformInt(1, 6));
        cfg.useHalfLut = cfg.mu >= 2;
        cfg.preAligned = trial % 2 == 0;
        cfg.blockRows = static_cast<int>(shapes.uniformInt(1, 16));

        const auto tc = makeCase(m, n, batch, bits, group, offset,
                                 2600 + static_cast<uint64_t>(trial));
        const std::string what = "trial " + std::to_string(trial);

        LutGemmCounters closed, packed, ref;
        (void)runBackend(tc, cfg, LutGemmBackend::Simd, &closed);
        (void)runBackend(tc, cfg, LutGemmBackend::Reference, &ref);
        (void)lutGemm(tc.weights, tc.x, cfg,
                      packLutKeys(tc.weights, cfg.mu), &packed);
        EXPECT_GT(ref.lutReads, 0u) << what;
        EXPECT_EQ(closed, packed) << what << " pre-packed";
        EXPECT_EQ(closed, ref) << what << " vs reference";
    }
}

TEST(SimdGemm, EngineNumericsPlumbsSimdBackend)
{
    // The FIGLUT engine wrapper runs Reference; a Simd lutGemm call
    // with the wrapper's numerics must stay bit-identical to it at one
    // worker and two.
    const auto tc = makeCase(12, 40, 3, 3, 20, true, 2700);
    const NumericsConfig nc;
    LutGemmConfig simd;
    simd.mu = nc.mu;
    simd.actFormat = nc.actFormat;
    simd.arith = nc.accum;
    simd.alignFracBits = nc.alignFracBits;
    simd.backend = LutGemmBackend::Simd;
    simd.blockRows = 4;
    for (const int threads : {1, 2}) {
        simd.threads = threads;
        for (const bool pre : {false, true}) {
            simd.preAligned = pre;
            const auto a = figlutGemm(tc.weights, tc.x, nc, pre);
            const auto b = lutGemm(tc.weights, tc.x, simd);
            EXPECT_TRUE(compareMatrices(a, b).identical)
                << "threads=" << threads << " pre=" << pre;
        }
    }
}

} // namespace
} // namespace figlut
