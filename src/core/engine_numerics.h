/**
 * @file
 * Functional (bit-exact) numerics of every engine in the paper's
 * accuracy evaluation (Table IV):
 *
 *  - GPU / FPE: dequantize weights to the activation format, multiply,
 *    FP32 accumulate — the cuBLAS-with-dequantization reference.
 *  - iFPU: pre-align activation mantissas per group, bit-serial signed
 *    integer sums per BCQ plane, scale recovery in FP32.
 *  - FIGNA: pre-aligned integer multiply against uniform codes.
 *  - FIGLUT-F / FIGLUT-I: see core/lut_gemm.h; FIGLUT-I is numerically
 *    identical to iFPU by construction (both sum exact integers per
 *    plane and fold in the same order), which the tests assert.
 *
 * All kernels return doubles that hold exactly-representable values of
 * the modeled datapath, so equality comparisons are meaningful.
 */

#ifndef FIGLUT_CORE_ENGINE_NUMERICS_H
#define FIGLUT_CORE_ENGINE_NUMERICS_H

#include <string>

#include "common/matrix.h"
#include "core/lut_gemm.h"
#include "quant/bcq.h"
#include "quant/rtn.h"

namespace figlut {

/** Engine identity used across accuracy and hardware evaluations. */
enum class EngineKind
{
    FPE,      ///< baseline: dequant + FP multiply-accumulate
    IFPU,     ///< bit-serial pre-aligned BCQ adder engine
    FIGNA,    ///< pre-aligned integer-multiply engine (uniform only)
    FIGLUT_F, ///< LUT engine, FP datapath
    FIGLUT_I, ///< LUT engine, pre-aligned integer datapath
};

/** All engines, in the paper's presentation order. */
inline constexpr EngineKind kAllEngines[] = {
    EngineKind::FPE, EngineKind::IFPU, EngineKind::FIGNA,
    EngineKind::FIGLUT_F, EngineKind::FIGLUT_I};

/** Human-readable engine name. */
std::string engineName(EngineKind kind);

/** Numerics settings shared by the engine kernels. */
struct NumericsConfig
{
    ActFormat actFormat = ActFormat::FP16;
    FpArith accum = FpArith::Fp32; ///< accumulate precision
    int alignFracBits = 24;        ///< pre-aligned datapath width
    int mu = 4;                    ///< LUT group size (FIGLUT only)
};

/** Double-precision oracle on already-dequantized weights. */
MatrixD oracleGemm(const MatrixD &weights, const MatrixD &x);

/**
 * GPU/FPE reference: weights dequantized into the activation format,
 * sequential FP multiply + accumulate in the configured precision.
 */
MatrixD fpReferenceGemm(const MatrixD &dequant_weights, const MatrixD &x,
                        const NumericsConfig &config);

/** iFPU kernel on BCQ weights. */
MatrixD ifpuGemm(const BcqTensor &weights, const MatrixD &x,
                 const NumericsConfig &config);

/** FIGNA kernel on uniform (RTN) weights. */
MatrixD fignaGemm(const RtnTensor &weights, const MatrixD &x,
                  const NumericsConfig &config);

/**
 * FIGLUT kernel (variant selected by pre_aligned) on the Reference
 * backend, the paper-accuracy counterpart of the other engines;
 * counters are its per-read counts. Host execution (Simd backend,
 * workers, tiling) goes through lutGemm(), with identical outputs and
 * counters.
 */
MatrixD figlutGemm(const BcqTensor &weights, const MatrixD &x,
                   const NumericsConfig &config, bool pre_aligned,
                   LutGemmCounters *counters = nullptr);

/** Error summary between a test matrix and a reference. */
struct ErrorReport
{
    double maxAbs = 0.0;  ///< max |test - ref|
    double mse = 0.0;     ///< mean squared error
    double maxRel = 0.0;  ///< max |test - ref| / max(|ref|, eps)
    double refRms = 0.0;  ///< RMS magnitude of the reference
    bool identical = true;

    /** Normalized RMS error (RMSE / reference RMS). */
    double nrmse() const;
};

/** Compare element-wise; shapes must match. */
ErrorReport compareMatrices(const MatrixD &test, const MatrixD &ref);

} // namespace figlut

#endif // FIGLUT_CORE_ENGINE_NUMERICS_H
