/**
 * @file
 * AVX-512 int64 span kernels: register-resident LUT reads.
 *
 * FIGLUT keeps each chunk's LUT in flip-flops (FFLUT) rather than a
 * ported memory so that many read-accumulate lanes can read it in the
 * same cycle. The host analogue here: for lutStride <= 16 (mu <= 4) a
 * chunk's decoded table fits in two zmm registers, and one
 * VPERMT2Q looks up 8 rows at once on the shuffle port
 * instead of 8 gather lanes through the L1 load ports. The
 * multi-column span loads each key vector once for up to kSpanCols
 * columns' tables. Tail rows (n % 32) and wider tables go to the AVX2
 * kernel, once per column; it stays the only gather implementation.
 * Every other entry of the table comes from the generic-vector bodies
 * of core/vector_kernels.h and core/attention_kernel.h at 8 doubles
 * per vector (-mprefer-vector-width=512 makes them single zmm
 * operations).
 *
 * Compiled with -mavx512f (file-level flag set by src/CMakeLists.txt
 * under FIGLUT_SIMD_AVX2) and only reached after the dispatcher
 * confirmed CPUID AVX-512F and AVX2 support. Bit identity with the
 * scalar contract of simd.cpp holds by construction: each row still
 * accumulates its entries chunk-sequentially with exact int64 adds.
 */

#include "core/simd.h"

#if !defined(__AVX512F__)
#error "simd_avx512.cpp must be compiled with -mavx512f"
#endif

#include <immintrin.h>

#include "core/attention_kernel.h"
#include "core/vector_kernels.h"

namespace figlut {
namespace simd_detail {

const SimdKernels &avx2Kernels(); // simd_avx2.cpp

namespace {

/** Table entries two zmm registers hold (8 int64 lanes each). */
constexpr std::size_t kRegTableEntries = 16;

/** Rows per register block: four independent 8-row accumulators. */
constexpr std::size_t kBlockRows = 32;

/** Keys of 8 consecutive rows, zero-extended to permute indices. */
inline __m512i
rowKeys(const std::uint32_t *k)
{
    return _mm512_cvtepu32_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(k)));
}

/**
 * The span walk of simd.h for 32-row blocks with the chunk's table in
 * registers, over a block of Cols activation columns that share the
 * keys: each 8-key vector is loaded and widened once per chunk, then
 * looked up in every column's table. Column j's rows accumulate in
 * their own registers in chunk order, exactly as a Cols = 1 walk of
 * column j alone would. The masked loads read exactly lutStride
 * entries, so a table narrower than 16 never touches memory past its
 * slab; keys are below lutStride, so the zeroed lanes are never
 * selected. At Cols = 4 the walk holds 4 key vectors and 4 x (2 table
 * + 4 accumulator) registers: 28 of the 32 zmm. Tail rows and wider
 * tables run the AVX2 kernel once per column.
 */
template <std::size_t Cols>
void
spanAvx512(std::int64_t *const *psum, const std::int64_t *const *lut,
           std::size_t lutStride, const std::uint32_t *keys,
           std::size_t keyStride, std::size_t chunks, std::size_t n)
{
    constexpr std::size_t kVecs = kBlockRows / 8;
    std::size_t r = 0;
    if (lutStride <= kRegTableEntries) {
        const __mmask8 loMask = static_cast<__mmask8>(
            lutStride >= 8 ? 0xFFu : (1u << lutStride) - 1u);
        const __mmask8 hiMask = static_cast<__mmask8>(
            lutStride > 8 ? (1u << (lutStride - 8)) - 1u : 0u);
        for (; r + kBlockRows <= n; r += kBlockRows) {
            __m512i p[Cols][kVecs];
            const std::int64_t *l[Cols];
            for (std::size_t j = 0; j < Cols; ++j) {
                l[j] = lut[j];
                for (std::size_t v = 0; v < kVecs; ++v)
                    p[j][v] = _mm512_loadu_si512(psum[j] + r + 8 * v);
            }
            const std::uint32_t *k = keys + r;
            for (std::size_t c = 0; c < chunks; ++c) {
                __m512i idx[kVecs];
                for (std::size_t v = 0; v < kVecs; ++v)
                    idx[v] = rowKeys(k + 8 * v);
                for (std::size_t j = 0; j < Cols; ++j) {
                    const __m512i lo =
                        _mm512_maskz_loadu_epi64(loMask, l[j]);
                    const __m512i hi =
                        _mm512_maskz_loadu_epi64(hiMask, l[j] + 8);
                    for (std::size_t v = 0; v < kVecs; ++v)
                        p[j][v] = _mm512_add_epi64(
                            p[j][v],
                            _mm512_permutex2var_epi64(lo, idx[v], hi));
                    l[j] += lutStride;
                }
                k += keyStride;
            }
            for (std::size_t j = 0; j < Cols; ++j)
                for (std::size_t v = 0; v < kVecs; ++v)
                    _mm512_storeu_si512(psum[j] + r + 8 * v, p[j][v]);
        }
    }
    if (r < n)
        for (std::size_t j = 0; j < Cols; ++j)
            avx2Kernels().accumIntSpan(psum[j] + r, lut[j], lutStride,
                                       keys + r, keyStride, chunks, n - r);
}

/** The single-column span kernel: the Cols = 1 walk. */
void
accumIntSpanAvx512(std::int64_t *psum, const std::int64_t *lut,
                   std::size_t lutStride, const std::uint32_t *keys,
                   std::size_t keyStride, std::size_t chunks,
                   std::size_t n)
{
    spanAvx512<1>(&psum, &lut, lutStride, keys, keyStride, chunks, n);
}

void
accumIntSpanColsAvx512(std::int64_t *const *psum,
                       const std::int64_t *const *lut,
                       std::size_t lutStride, const std::uint32_t *keys,
                       std::size_t keyStride, std::size_t chunks,
                       std::size_t n, std::size_t cols)
{
    static_assert(kSpanCols == 4, "one instantiation per block width");
    switch (cols) {
      case 1:
          spanAvx512<1>(psum, lut, lutStride, keys, keyStride, chunks, n);
          break;
      case 2:
          spanAvx512<2>(psum, lut, lutStride, keys, keyStride, chunks, n);
          break;
      case 3:
          spanAvx512<3>(psum, lut, lutStride, keys, keyStride, chunks, n);
          break;
      case 4:
          spanAvx512<4>(psum, lut, lutStride, keys, keyStride, chunks, n);
          break;
      default:
          break;
    }
}

const SimdKernels kAvx512Kernels = {
    SimdIsa::Avx512,      accumIntSpanAvx512,
    accumIntSpanColsAvx512,
    foldIntPlaneFp32Body, foldOffsetFp32Body,
    addFlatBody,          sumLanesBody,
    sumSqDevLanesBody,    normalizeFlatBody,
    geluFlatBody,         attentionHeadBody,
};

} // namespace

const SimdKernels &
avx512Kernels()
{
    return kAvx512Kernels;
}

} // namespace simd_detail
} // namespace figlut
