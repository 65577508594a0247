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

#include "common/rng.h"
#include "core/simd.h"

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

} // namespace figlut

#endif // FIGLUT_TESTS_CORE_SIMD_KERNEL_CHECKS_H
