/**
 * @file
 * AVX2 table of SimdKernels: the int64 span kernel in gather
 * intrinsics, and every other entry from the generic-vector bodies of
 * core/vector_kernels.h and core/attention_kernel.h at 4 doubles per
 * vector.
 *
 * This translation unit is compiled with -mavx2 (file-level flag set
 * by src/CMakeLists.txt when FIGLUT_SIMD_AVX2 is ON) while the rest
 * of the library stays on the baseline ISA; nothing here runs unless
 * the runtime dispatcher confirmed CPUID AVX2 support, so the binary
 * remains safe on non-AVX2 hosts.
 */

#include "core/simd.h"

#if !defined(__AVX2__)
#error "simd_avx2.cpp must be compiled with -mavx2"
#endif

#include <immintrin.h>

#include "core/attention_kernel.h"
#include "core/vector_kernels.h"

namespace figlut {
namespace simd_detail {

namespace {

/**
 * The span kernel keeps two row-vectors (8 rows) of partial sums in
 * registers across the whole chunk walk: the two accumulation chains
 * are independent, so the gather latency of one overlaps the
 * other, and psum traffic drops from per-chunk load+store to one
 * load+store per span. Per-row accumulation order is chunk-sequential
 * exactly as in the scalar contract.
 */

void
accumIntSpanAvx2(std::int64_t *psum, const std::int64_t *lut,
                 std::size_t lutStride, const std::uint32_t *keys,
                 std::size_t keyStride, std::size_t chunks,
                 std::size_t n)
{
    const long long *lutLL = reinterpret_cast<const long long *>(lut);
    std::size_t r = 0;
    for (; r + 8 <= n; r += 8) {
        __m256i p0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(psum + r));
        __m256i p1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(psum + r + 4));
        const long long *l = lutLL;
        const std::uint32_t *k = keys + r;
        for (std::size_t c = 0; c < chunks; ++c) {
            const __m128i k0 = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(k));
            const __m128i k1 = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(k + 4));
            p0 = _mm256_add_epi64(p0,
                                  _mm256_i32gather_epi64(l, k0, 8));
            p1 = _mm256_add_epi64(p1,
                                  _mm256_i32gather_epi64(l, k1, 8));
            l += lutStride;
            k += keyStride;
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(psum + r), p0);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(psum + r + 4),
                            p1);
    }
    for (; r + 4 <= n; r += 4) {
        __m256i p0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(psum + r));
        const long long *l = lutLL;
        const std::uint32_t *k = keys + r;
        for (std::size_t c = 0; c < chunks; ++c) {
            const __m128i k0 = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(k));
            p0 = _mm256_add_epi64(p0,
                                  _mm256_i32gather_epi64(l, k0, 8));
            l += lutStride;
            k += keyStride;
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(psum + r), p0);
    }
    for (; r < n; ++r) {
        std::int64_t p = psum[r];
        const std::int64_t *l = lut;
        const std::uint32_t *k = keys + r;
        for (std::size_t c = 0; c < chunks; ++c) {
            p += l[*k];
            l += lutStride;
            k += keyStride;
        }
        psum[r] = p;
    }
}

const SimdKernels kAvx2Kernels = {
    SimdIsa::Avx2,        prologueIntBody,
    accumIntSpanAvx2,
    accumIntSpanColsEach<accumIntSpanAvx2>,
    foldIntPlaneFp32Body, foldOffsetFp32Body,
    addFlatBody,          sumLanesBody,
    sumSqDevLanesBody,    normalizeFlatBody,
    geluFlatBody,         attentionHeadBody,
};

} // namespace

const SimdKernels &
avx2Kernels()
{
    return kAvx2Kernels;
}

} // namespace simd_detail
} // namespace figlut
