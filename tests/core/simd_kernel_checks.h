/**
 * @file
 * Checks of a SimdKernels table against the scalar table, shared by
 * the per-ISA suites (test_simd_gemm.cpp) and the 2-lane body suite
 * (test_vector_kernels.cpp): guard-paged arrays, the epilogue fold
 * draws, and one routine per group of entries that runs a table and
 * the scalar table on the same guard-paged inputs and compares bits.
 */

#ifndef FIGLUT_TESTS_CORE_SIMD_KERNEL_CHECKS_H
#define FIGLUT_TESTS_CORE_SIMD_KERNEL_CHECKS_H

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/lut_key.h"
#include "core/simd.h"
#include "numerics/fp_format.h"

namespace figlut {

template <typename T>
std::uint64_t
bitsOf(T v)
{
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof v);
    return b;
}

/**
 * n elements that end exactly at an inaccessible page. Sanitizers do
 * not instrument masked vector loads, so this is what makes a kernel
 * that reads even one lane past the last chunk's slab fault in every
 * build.
 */
template <typename T>
class GuardPagedArray
{
  public:
    explicit GuardPagedArray(std::size_t n)
    {
        const std::size_t page =
            static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
        const std::size_t dataPages = (n * sizeof(T) + page - 1) / page;
        bytes_ = (dataPages + 1) * page;
        void *base = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (base == MAP_FAILED)
            throw std::bad_alloc();
        base_ = static_cast<char *>(base);
        char *guard = base_ + dataPages * page;
        if (mprotect(guard, page, PROT_NONE) != 0) {
            munmap(base_, bytes_);
            throw std::bad_alloc();
        }
        data_ = reinterpret_cast<T *>(guard) - n;
        size_ = n;
    }
    ~GuardPagedArray() { munmap(base_, bytes_); }
    GuardPagedArray(const GuardPagedArray &) = delete;
    GuardPagedArray &operator=(const GuardPagedArray &) = delete;

    T *data() { return data_; }
    std::size_t size() const { return size_; }
    T &operator[](std::size_t i) { return data_[i]; }

  private:
    char *base_ = nullptr;
    std::size_t bytes_ = 0;
    T *data_ = nullptr;
    std::size_t size_ = 0;
};

/** Index of the first element whose bits differ, or n. */
template <typename T>
std::size_t
firstBitMismatch(const std::vector<T> &a, const std::vector<T> &b)
{
    for (std::size_t i = 0; i < a.size(); ++i)
        if (bitsOf(a[i]) != bitsOf(b[i]))
            return i;
    return a.size();
}

/**
 * One epilogue fold input. Besides random values the draw makes
 * binary32 ties (acc = 1, term = an odd multiple of 2^-24, or an
 * inner product on a tie), signed zeros that meet (-0.0 + +0.0),
 * negative alphas, and int64 psums out to and past 2^51, where the
 * vector bodies' exact int64 -> double conversion ends.
 */
struct FoldDraw
{
    double acc, alpha;
    std::int64_t psum;
};

inline FoldDraw
drawFold(Rng &rng)
{
    const double sign = rng.uniformInt(0, 1) == 1 ? -1.0 : 1.0;
    const std::int64_t odd = 2 * rng.uniformInt(0, 1000) + 1;
    const std::int64_t bound = std::int64_t{1} << 51;
    FoldDraw d{rng.normal() * 100.0, sign * rng.normal(),
               rng.uniformInt(-1000000, 1000000)};
    switch (rng.uniformInt(0, 6)) {
      case 0: // outer tie: 1 + odd * 2^-24 with scale 2^-24
        d.acc = 1.0;
        d.alpha = 1.0;
        d.psum = odd;
        break;
      case 1: // inner tie: alpha * 1 lies halfway between two floats
        d.alpha = sign * (1.0 + static_cast<double>(odd) *
                                    std::ldexp(1.0, -24));
        d.psum = std::int64_t{1} << 24;
        break;
      case 2: // -0.0 + +0.0 (and the other signed-zero pairs)
        d.acc = rng.uniformInt(0, 1) == 1 ? -0.0 : 0.0;
        d.alpha = sign * 0.0;
        d.psum = 0;
        break;
      case 3: // around the exact-conversion bound
        d.psum = static_cast<std::int64_t>(sign) *
                 (bound + rng.uniformInt(-2, 1));
        break;
      case 4: // far past it, up to 2^62
        d.psum = static_cast<std::int64_t>(sign) *
                 rng.uniformInt(bound, std::int64_t{1} << 62);
        break;
      default:
        break;
    }
    return d;
}

/**
 * The epilogue folds of `vec` against the scalar table, for n =
 * 0..70 (many vectors of every width and every tail). Each input ends
 * at a guard page, so a fold that reads or writes one row past n
 * faults.
 */
inline void
expectFoldsMatchScalar(const SimdKernels &vec, const std::string &name,
                       Rng &rng)
{
    const SimdKernels &scalar = simdKernelsFor(SimdIsa::Scalar);
    for (std::size_t n = 0; n <= 70; ++n) {
        for (int trial = 0; trial < 4; ++trial) {
            GuardPagedArray<double> alpha(n), acc(n);
            GuardPagedArray<std::int64_t> psum(n);
            std::vector<double> seed(n);
            for (std::size_t r = 0; r < n; ++r) {
                const FoldDraw d = drawFold(rng);
                seed[r] = d.acc;
                alpha[r] = d.alpha;
                psum[r] = d.psum;
            }
            // Trial 0 uses the tie scale; the others the shared
            // power-of-two scales alignment produces, and one
            // non-power-of-two.
            const double scales[] = {std::ldexp(1.0, -24),
                                     std::ldexp(1.0, -30), 1.0, 0.75};
            const double scale = scales[trial];
            const double sumx = trial == 2 ? -0.0 : rng.normal();
            const std::string what = name + " n=" + std::to_string(n) +
                                     " trial=" + std::to_string(trial);

            const auto run = [&](const SimdKernels &k, int fold) {
                std::copy(seed.begin(), seed.end(), acc.data());
                if (fold == 0)
                    k.foldIntPlaneFp32(acc.data(), alpha.data(),
                                       psum.data(), scale, n);
                else
                    k.foldOffsetFp32(acc.data(), alpha.data(), sumx, n);
                return std::vector<double>(acc.data(), acc.data() + n);
            };
            const char *names[] = {"int plane ", "offset "};
            for (int fold = 0; fold < 2; ++fold) {
                const auto want = run(scalar, fold);
                const auto got = run(vec, fold);
                EXPECT_EQ(firstBitMismatch(got, want), n)
                    << names[fold] << what;
            }
        }
    }
}

/**
 * A normal scaled by 2^[-20, 20]: over this range of magnitudes a
 * reduction summed in another order rounds differently.
 */
inline double
drawWide(Rng &rng)
{
    return std::ldexp(rng.normal(),
                      static_cast<int>(rng.uniformInt(-20, 20)));
}

/**
 * One flat-kernel input: mostly drawWide values, plus signed zeros,
 * NaN, +-1000 (where GELU's exp overflows to +inf or underflows to
 * 0) and values in [-12, 12], GELU's curved range. Infinities are
 * left out: inf - inf makes a NaN of the other sign, and which of two
 * NaNs an add returns depends on its operand order, which the
 * compiler may swap in either table.
 */
inline double
drawFlat(Rng &rng)
{
    const double sign = rng.uniformInt(0, 1) == 1 ? -1.0 : 1.0;
    switch (rng.uniformInt(0, 8)) {
      case 0:
        return sign * 0.0;
      case 1:
        return std::numeric_limits<double>::quiet_NaN();
      case 2:
        return sign * 1000.0;
      case 3:
        return sign * rng.uniform() * 12.0;
      default:
        return drawWide(rng);
    }
}

/**
 * addFlat, sumLanes, sumSqDevLanes, normalizeFlat and geluFlat of
 * `vec` against the scalar table, for n = 0..70. Trial 0 draws finite
 * values only, so the strided reductions' rounding shows the order;
 * trial 1 mixes in the special values of drawFlat; trial 2 is signed
 * zeros only (n >= 1). Every input and output ends at a guard page.
 */
inline void
expectFlatEntriesMatchScalar(const SimdKernels &vec,
                             const std::string &name, Rng &rng)
{
    const SimdKernels &scalar = simdKernelsFor(SimdIsa::Scalar);
    for (std::size_t n = 0; n <= 70; ++n) {
        for (int trial = 0; trial < 3; ++trial) {
            if (trial == 2 && n == 0)
                continue;
            GuardPagedArray<double> a(n), b(n);
            for (std::size_t i = 0; i < n; ++i) {
                for (double *x : {&a[i], &b[i]}) {
                    if (trial == 0)
                        *x = drawWide(rng);
                    else if (trial == 1)
                        *x = drawFlat(rng);
                    else
                        *x = rng.uniformInt(0, 1) == 1 ? -0.0 : 0.0;
                }
            }
            const double mean = trial == 2 ? -0.0 : rng.normal();
            const double invStd =
                trial == 2 ? 1.0 : 1.0 / rng.uniform(0.1, 4.0);
            const std::string what = name + " n=" + std::to_string(n) +
                                     " trial=" + std::to_string(trial);

            // Each entry that writes an array, run on one table.
            const auto run = [&](const SimdKernels &k, int entry) {
                GuardPagedArray<double> out(n);
                if (entry == 0)
                    k.addFlat(out.data(), a.data(), b.data(), n);
                else if (entry == 1)
                    k.normalizeFlat(out.data(), a.data(), mean, invStd, n);
                else
                    k.geluFlat(out.data(), a.data(), n);
                return std::vector<double>(out.data(), out.data() + n);
            };
            const char *names[] = {"addFlat ", "normalizeFlat ",
                                   "geluFlat "};
            for (int entry = 0; entry < 3; ++entry) {
                const auto want = run(scalar, entry);
                const auto got = run(vec, entry);
                EXPECT_EQ(firstBitMismatch(got, want), n)
                    << names[entry] << what;
            }
            EXPECT_EQ(bitsOf(vec.sumLanes(a.data(), n)),
                      bitsOf(scalar.sumLanes(a.data(), n)))
                << "sumLanes " << what;
            EXPECT_EQ(bitsOf(vec.sumSqDevLanes(a.data(), mean, n)),
                      bitsOf(scalar.sumSqDevLanes(a.data(), mean, n)))
                << "sumSqDevLanes " << what;
        }
    }
}

/**
 * One activation for the column prologue in `fmt`, by `kind`:
 *  0: a normal scaled well inside the format's normal range;
 *  1: mostly kind 0, mixed with +-0, FP16/BF16 subnormals, values
 *     whose rounding carries into the next binade (at the top normal
 *     binade too), rounding ties, and finite values in the top binade
 *     (which quantizeToFormat rounds on its full-range path);
 *  2: +-0 only.
 * Every draw rounds to a finite value.
 */
inline double
drawPrologueValue(Rng &rng, ActFormat fmt, int kind)
{
    const double sign = rng.uniformInt(0, 1) == 1 ? -1.0 : 1.0;
    if (kind == 2)
        return sign * 0.0;
    const bool bf16 = fmt == ActFormat::BF16;
    const int mant = bf16 ? 7 : 10;
    const int top = bf16 ? 127 : 15; // the format's maxExp
    const int lo = bf16 ? -100 : -10, hi = bf16 ? 100 : 10;
    const double normal = std::ldexp(
        rng.normal(), static_cast<int>(rng.uniformInt(lo, hi)));
    if (kind == 0)
        return normal;
    switch (rng.uniformInt(0, 9)) {
      case 0:
        return sign * 0.0;
      case 1: { // subnormal in the format
        const int sub = bf16 ? -126 : -14;
        return sign * std::ldexp(rng.uniform(),
                                 sub - static_cast<int>(
                                           rng.uniformInt(0, mant)));
      }
      case 2: { // just below a power of two: rounds up into 2^(e+1)
        const int e =
            rng.uniformInt(0, 3) == 0
                ? top - 1
                : static_cast<int>(rng.uniformInt(lo, hi));
        return sign * std::ldexp(2.0 - std::ldexp(1.0, -(mant + 2)), e);
      }
      case 3: { // an exact tie between two format values
        const double odd = static_cast<double>(
            2 * rng.uniformInt(0, (std::int64_t{1} << mant) - 1) + 1);
        return sign *
               std::ldexp(1.0 + odd * std::ldexp(1.0, -(mant + 1)),
                          static_cast<int>(rng.uniformInt(lo, hi)));
      }
      case 4: // finite in the top binade
        return sign * std::ldexp(1.0 + rng.uniform() * 0.9, top);
      default:
        return normal;
    }
}

/** Whether prologueInt's sums fit int64 (the validateLutGemmConfig bound). */
inline bool
prologueSumsFit(int fracBits, std::size_t n)
{
    int log2n = 0;
    while ((std::size_t{1} << log2n) < n)
        ++log2n;
    return fracBits + 1 + log2n <= 62;
}

/**
 * prologueInt of `vec` against the scalar table, every output bit
 * compared: the mantissas, every chunk's table, the header and the
 * mantissa sum. n runs over 0..1100, so every vector tail of every
 * width occurs for each stride; each n draws its format (FP16, BF16
 * and now and then FP32, which keeps preAlignInto), stride (1 or 11),
 * fracBits (2, 24, 50, 51 or 60, the last two past the lane path's
 * exact range; n is cut to the int64 bound there), mu (mostly 4, also
 * 1-3, 5 and 8, narrower and wider than a vector) and value kind
 * (drawPrologueValue: in range, mixed specials, all +-0). x, the
 * mantissas and the tables each end at a guard page.
 */
inline void
expectPrologueMatchesScalar(const SimdKernels &vec, const std::string &name,
                            Rng &rng)
{
    const SimdKernels &scalar = simdKernelsFor(SimdIsa::Scalar);
    const int kFracBits[] = {2, 24, 50, 51, 60};
    const int kMus[] = {4, 4, 4, 1, 2, 3, 5, 8};
    for (std::size_t n0 = 0; n0 <= 1100; ++n0) {
        const int fracBits = kFracBits[rng.uniformInt(0, 4)];
        std::size_t n = n0;
        while (!prologueSumsFit(fracBits, n))
            n /= 2;
        const ActFormat fmt =
            rng.uniformInt(0, 9) == 0
                ? ActFormat::FP32
                : (n0 % 2 == 0 ? ActFormat::FP16 : ActFormat::BF16);
        const std::size_t stride = (n0 / 2) % 2 == 0 ? 1 : 11;
        const int mu = kMus[rng.uniformInt(0, 7)];
        const int kind = static_cast<int>(rng.uniformInt(0, 5)) % 3;
        const std::size_t chunks = (n + mu - 1) / mu;
        const std::size_t entries = lutEntries(mu);
        GuardPagedArray<double> x(n * stride);
        for (std::size_t i = 0; i < n * stride; ++i)
            x[i] = drawPrologueValue(rng, fmt, kind);
        const std::string what =
            name + " n=" + std::to_string(n) + " " + actFormatName(fmt) +
            " stride=" + std::to_string(stride) + " fracBits=" +
            std::to_string(fracBits) + " mu=" + std::to_string(mu) +
            " kind=" + std::to_string(kind);

        struct Out
        {
            IntPrologueResult r;
            std::vector<std::int64_t> mant, lut;
        };
        const auto run = [&](const SimdKernels &k) {
            GuardPagedArray<std::int64_t> mant(chunks * mu),
                lut(chunks * entries);
            // Stale contents must not leak into the padded tail.
            for (std::size_t i = 0; i < mant.size(); ++i)
                mant[i] = -7;
            IntPrologueGroup g;
            g.x = x.data();
            g.count = n;
            g.stride = stride;
            g.format = fmt;
            g.fracBits = fracBits;
            g.mu = mu;
            g.mant = mant.data();
            g.lut = lut.data();
            Out o;
            o.r = k.prologueInt(g);
            o.mant.assign(mant.data(), mant.data() + mant.size());
            o.lut.assign(lut.data(), lut.data() + lut.size());
            return o;
        };
        const Out want = run(scalar);
        const Out got = run(vec);
        EXPECT_EQ(got.r.align.allZero, want.r.align.allZero) << what;
        EXPECT_EQ(got.r.align.sharedExp, want.r.align.sharedExp) << what;
        EXPECT_EQ(got.r.mantSum, want.r.mantSum) << what;
        EXPECT_EQ(firstBitMismatch(got.mant, want.mant), want.mant.size())
            << "mantissas " << what;
        EXPECT_EQ(firstBitMismatch(got.lut, want.lut), want.lut.size())
            << "tables " << what;
    }
}

/**
 * prologueInt of `k` stays fatal, as preAlignInto is, on NaN, +-inf
 * and a finite value that rounds to inf, in a whole vector and in the
 * tail, for each format and stride, and on fracBits outside
 * [kMinAlignFracBits, kMaxAlignFracBits].
 */
inline void
expectPrologueRejectsLikeScalar(const SimdKernels &k,
                                const std::string &name)
{
    const double kBad[] = {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(), 0.0};
    constexpr std::size_t n = 37;
    for (const ActFormat fmt :
         {ActFormat::FP16, ActFormat::BF16, ActFormat::FP32}) {
        // Finite, but rounds to inf in the format.
        const double overflow = fmt == ActFormat::FP16 ? 65520.0 : 1e39;
        for (const std::size_t stride : {std::size_t{1}, std::size_t{3}}) {
            for (const std::size_t at : {std::size_t{0}, std::size_t{5},
                                         n - 1}) {
                for (double bad : kBad) {
                    if (bad == 0.0)
                        bad = overflow;
                    GuardPagedArray<double> x(n * stride);
                    GuardPagedArray<std::int64_t> mant(40), lut(160);
                    for (std::size_t i = 0; i < n * stride; ++i)
                        x[i] = 1.0 + static_cast<double>(i % 5);
                    x[at * stride] = bad;
                    IntPrologueGroup g;
                    g.x = x.data();
                    g.count = n;
                    g.stride = stride;
                    g.format = fmt;
                    g.mant = mant.data();
                    g.lut = lut.data();
                    EXPECT_THROW(k.prologueInt(g), FatalError)
                        << name << " " << actFormatName(fmt) << " at=" << at
                        << " stride=" << stride << " value=" << bad;
                }
            }
        }
    }
    for (const int fracBits : {kMinAlignFracBits - 1, kMaxAlignFracBits + 1}) {
        GuardPagedArray<double> x(8);
        GuardPagedArray<std::int64_t> mant(8), lut(32);
        for (std::size_t i = 0; i < 8; ++i)
            x[i] = 1.0;
        IntPrologueGroup g;
        g.x = x.data();
        g.count = 8;
        g.fracBits = fracBits;
        g.mant = mant.data();
        g.lut = lut.data();
        EXPECT_THROW(k.prologueInt(g), FatalError)
            << name << " fracBits=" << fracBits;
    }
}

} // namespace figlut

#endif // FIGLUT_TESTS_CORE_SIMD_KERNEL_CHECKS_H
