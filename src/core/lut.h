/**
 * @file
 * Functional model of the full FFLUT: all 2^mu signed combinations of a
 * group of mu activations (paper Section III-A, Table II).
 *
 * Two value domains are provided:
 *  - LutD: double/FP entries (FIGLUT-F and accuracy references). Each
 *    addition can optionally be rounded to a narrow FP format to model
 *    the physical adder width.
 *  - LutI: int64 entries over pre-aligned mantissas (FIGLUT-I); integer
 *    arithmetic is exact, so this path is bit-reproducible.
 */

#ifndef FIGLUT_CORE_LUT_H
#define FIGLUT_CORE_LUT_H

#include <cstdint>
#include <vector>

#include "core/lut_key.h"
#include "numerics/fp_format.h"

namespace figlut {

/** Arithmetic mode for FP LUT construction and accumulation. */
enum class FpArith
{
    Exact,  ///< double precision throughout (oracle)
    Fp32,   ///< round every add to binary32 (FIGLUT-F hardware)
    Fp16,   ///< round every add to binary16 (stress/ablation)
    Bf16,   ///< round every add to bfloat16 (stress/ablation)
};

/**
 * Round a value into the representation used by the mode. Inline: the
 * scalar LUT-GEMM loops call it once per add; in FpArith::Fp32 the
 * Simd backend's span and epilogue kernels (core/simd.h) apply the
 * same rounding instead.
 */
inline double
fpRound(double v, FpArith mode)
{
    switch (mode) {
      case FpArith::Exact: return v;
      case FpArith::Fp32: return static_cast<float>(v);
      case FpArith::Fp16: return quantizeToFormat(v, ActFormat::FP16);
      case FpArith::Bf16: return quantizeToFormat(v, ActFormat::BF16);
    }
    panic("unknown FpArith mode");
}

/** Apply one FP addition in the given arithmetic mode. */
inline double
fpAdd(double a, double b, FpArith mode)
{
    return fpRound(a + b, mode);
}

/** Full look-up table over doubles. */
class LutD
{
  public:
    /** Build by direct enumeration (mu-1 adds per entry). */
    static LutD buildDirect(const std::vector<double> &xs, FpArith mode);

    /**
     * Direct enumeration into caller-owned storage: writes the 2^mu
     * entries to out with no allocation. Backs the flat LUT arenas of
     * the LUT-GEMM kernel; values are identical to buildDirect().
     */
    static void buildDirectInto(const double *xs, int mu, FpArith mode,
                                double *out);

    int mu() const { return mu_; }
    uint32_t entries() const { return lutEntries(mu_); }

    /** Entry lookup; key per Table II. */
    double
    value(uint32_t key) const
    {
        FIGLUT_ASSERT(key < values_.size(), "LUT key out of range");
        return values_[key];
    }

    const std::vector<double> &raw() const { return values_; }

    /** Construct from precomputed entries (used by the generator). */
    LutD(int mu, std::vector<double> values);

  private:
    int mu_;
    std::vector<double> values_;
};

/** Full look-up table over pre-aligned integer mantissas. */
class LutI
{
  public:
    /** Build by direct enumeration over integer mantissas (exact). */
    static LutI buildDirect(const std::vector<int64_t> &xs);

    /** Direct enumeration into caller-owned storage (2^mu entries). */
    static void buildDirectInto(const int64_t *xs, int mu, int64_t *out);

    int mu() const { return mu_; }
    uint32_t entries() const { return lutEntries(mu_); }

    int64_t
    value(uint32_t key) const
    {
        FIGLUT_ASSERT(key < values_.size(), "LUT key out of range");
        return values_[key];
    }

    const std::vector<int64_t> &raw() const { return values_; }

    LutI(int mu, std::vector<int64_t> values);

  private:
    int mu_;
    std::vector<int64_t> values_;
};

} // namespace figlut

#endif // FIGLUT_CORE_LUT_H
