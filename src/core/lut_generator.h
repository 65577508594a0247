/**
 * @file
 * The efficient LUT generator (paper Section III-E, Fig. 11).
 *
 * The generator produces the 2^(mu-1) hFFLUT entries with a two-step
 * tree: the group is split into an upper part (first h = ceil(mu/2)
 * activations, whose leading sign is pinned to + by the half-table
 * symmetry) and a lower part (remaining l = mu - h activations, all
 * sign combinations). Upper and lower partial patterns are computed
 * once and every (upper, lower) pair is combined with a single add.
 *
 * Adder accounting for mu = 4 reproduces the paper's numbers exactly:
 * 2 (upper) + 4 (lower) + 8 (combine) = 14 additions versus the
 * straightforward 2^(mu-1) * (mu-1) = 24, a 42% reduction.
 */

#ifndef FIGLUT_CORE_LUT_GENERATOR_H
#define FIGLUT_CORE_LUT_GENERATOR_H

#include <cstdint>
#include <vector>

#include "core/half_lut.h"
#include "core/lut.h"

namespace figlut {

/** Addition-count accounting for one LUT generation. */
struct GeneratorStats
{
    int mu = 0;
    uint64_t upperAdds = 0;    ///< adds producing upper patterns
    uint64_t lowerAdds = 0;    ///< adds producing lower patterns
    uint64_t combineAdds = 0;  ///< adds joining upper x lower
    uint64_t treeAdds = 0;     ///< total adds in the tree generator
    uint64_t naiveAdds = 0;    ///< 2^(mu-1) * (mu-1) baseline
    double savingRatio = 0.0;  ///< 1 - tree/naive
};

/** Static adder accounting for a given mu (no values computed). */
GeneratorStats lutGeneratorAdderCount(int mu);

/**
 * Tree-based LUT generator.
 *
 * Values are computed in the physical adder order of the hardware tree
 * so that FP rounding behaviour matches the modeled datapath; integer
 * generation is exact.
 */
class LutGenerator
{
  public:
    LutGenerator(int mu, FpArith mode);

    int mu() const { return mu_; }
    FpArith mode() const { return mode_; }

    /** Generate the half table for a group of mu FP activations. */
    HalfLutD generateHalf(const std::vector<double> &xs) const;

    /** Generate the half table over pre-aligned integer mantissas. */
    HalfLutI generateHalfInt(const std::vector<int64_t> &xs) const;

    /**
     * Generate the full mirrored table (2^mu entries) into
     * caller-owned storage, with the tree's physical adder order: the
     * MSB = 1 half holds the tree-generated entries and every MSB = 0
     * entry is the negated complement, so out[key] is bit-identical to
     * the hFFLUT decoder read of generateHalf() for every key. Backs
     * the flat LUT arenas of the LUT-GEMM kernel (no allocation). The
     * body is compiled once per mu in [2, kMaxMu]; the constructor
     * picks this generator's.
     */
    void generateFullInto(const double *xs, double *out) const;

    /** Integer-mantissa variant of generateFullInto() (exact). */
    void generateFullIntInto(const int64_t *xs, int64_t *out) const;

    /** Adder accounting for this generator's mu. */
    const GeneratorStats &stats() const { return stats_; }

    /** The fills at one compile-time mu (see lut_generator.cpp). */
    using FpFill = void (*)(const double *, double *, FpArith);
    using IntFill = void (*)(const int64_t *, int64_t *);

  private:
    int mu_;
    FpArith mode_;
    GeneratorStats stats_;
    FpFill fpFill_;   ///< generateFullInto body for mu_
    IntFill intFill_; ///< generateFullIntInto body for mu_
};

} // namespace figlut

#endif // FIGLUT_CORE_LUT_GENERATOR_H
