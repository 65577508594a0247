/**
 * @file
 * AVX-512 span kernels: register-resident LUT reads.
 *
 * FIGLUT keeps each chunk's LUT in flip-flops (FFLUT) rather than a
 * ported memory so that many read-accumulate lanes can read it in the
 * same cycle. The host analogue here: for lutStride <= 16 (mu <= 4) a
 * chunk's decoded table fits in two zmm registers, and one
 * VPERMT2Q/VPERMT2PD looks up 8 rows at once on the shuffle port
 * instead of 8 gather lanes through the L1 load ports. The
 * multi-column span loads each key vector once for up to kSpanCols
 * columns' tables. Tail rows (n % 32) and wider tables go to the AVX2
 * kernels, once per column; they stay the only gather implementation,
 * and every non-span entry of the table is the AVX2 one.
 *
 * Compiled with -mavx512f (file-level flag set by src/CMakeLists.txt
 * under FIGLUT_SIMD_AVX2) and only reached after the dispatcher
 * confirmed CPUID AVX-512F and AVX2 support. Bit identity with the
 * scalar contract of simd.cpp holds by construction: each row still
 * accumulates its entries chunk-sequentially with the same operation
 * (int64 add, double add, or double add plus the binary32 round-trip).
 */

#include "core/simd.h"

#if !defined(__AVX512F__)
#error "simd_avx512.cpp must be compiled with -mavx512f"
#endif

#include <immintrin.h>

namespace figlut {
namespace simd_detail {

const SimdKernels &avx2Kernels(); // simd_avx2.cpp

namespace {

/** Table entries two zmm registers hold (8 int64/double lanes each). */
constexpr std::size_t kRegTableEntries = 16;

/** Rows per register block: four independent 8-row accumulators. */
constexpr std::size_t kBlockRows = 32;

/** Per-element operations of the three span kernels. */
struct IntAdd
{
    using Elem = std::int64_t;
    using Vec = __m512i;
    static Vec load(const Elem *p) { return _mm512_loadu_si512(p); }
    static void store(Elem *p, Vec v) { _mm512_storeu_si512(p, v); }
    static Vec loadMasked(__mmask8 m, const Elem *p)
    {
        return _mm512_maskz_loadu_epi64(m, p);
    }
    static Vec lookup(Vec lo, __m512i idx, Vec hi)
    {
        return _mm512_permutex2var_epi64(lo, idx, hi);
    }
    static Vec add(Vec p, Vec e) { return _mm512_add_epi64(p, e); }
    static auto fallback() { return avx2Kernels().accumIntSpan; }
};

struct FpExactAdd
{
    using Elem = double;
    using Vec = __m512d;
    static Vec load(const Elem *p) { return _mm512_loadu_pd(p); }
    static void store(Elem *p, Vec v) { _mm512_storeu_pd(p, v); }
    static Vec loadMasked(__mmask8 m, const Elem *p)
    {
        return _mm512_maskz_loadu_pd(m, p);
    }
    static Vec lookup(Vec lo, __m512i idx, Vec hi)
    {
        return _mm512_permutex2var_pd(lo, idx, hi);
    }
    static Vec add(Vec p, Vec e) { return _mm512_add_pd(p, e); }
    static auto fallback() { return avx2Kernels().accumFpSpanExact; }
};

struct FpFp32Add : FpExactAdd
{
    /** The per-add binary32 round-trip of FpArith::Fp32. */
    static Vec add(Vec p, Vec e)
    {
        return _mm512_cvtps_pd(_mm512_cvtpd_ps(_mm512_add_pd(p, e)));
    }
    static auto fallback() { return avx2Kernels().accumFpSpanFp32; }
};

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
 * tables run the fallback kernel once per column.
 */
template <class Op, std::size_t Cols>
void
spanAvx512(typename Op::Elem *const *psum,
           const typename Op::Elem *const *lut, std::size_t lutStride,
           const std::uint32_t *keys, std::size_t keyStride,
           std::size_t chunks, std::size_t n)
{
    using Vec = typename Op::Vec;
    using Elem = typename Op::Elem;
    constexpr std::size_t kVecs = kBlockRows / 8;
    std::size_t r = 0;
    if (lutStride <= kRegTableEntries) {
        const __mmask8 loMask = static_cast<__mmask8>(
            lutStride >= 8 ? 0xFFu : (1u << lutStride) - 1u);
        const __mmask8 hiMask = static_cast<__mmask8>(
            lutStride > 8 ? (1u << (lutStride - 8)) - 1u : 0u);
        for (; r + kBlockRows <= n; r += kBlockRows) {
            Vec p[Cols][kVecs];
            const Elem *l[Cols];
            for (std::size_t j = 0; j < Cols; ++j) {
                l[j] = lut[j];
                for (std::size_t v = 0; v < kVecs; ++v)
                    p[j][v] = Op::load(psum[j] + r + 8 * v);
            }
            const std::uint32_t *k = keys + r;
            for (std::size_t c = 0; c < chunks; ++c) {
                __m512i idx[kVecs];
                for (std::size_t v = 0; v < kVecs; ++v)
                    idx[v] = rowKeys(k + 8 * v);
                for (std::size_t j = 0; j < Cols; ++j) {
                    const Vec lo = Op::loadMasked(loMask, l[j]);
                    const Vec hi = Op::loadMasked(hiMask, l[j] + 8);
                    for (std::size_t v = 0; v < kVecs; ++v)
                        p[j][v] =
                            Op::add(p[j][v], Op::lookup(lo, idx[v], hi));
                    l[j] += lutStride;
                }
                k += keyStride;
            }
            for (std::size_t j = 0; j < Cols; ++j)
                for (std::size_t v = 0; v < kVecs; ++v)
                    Op::store(psum[j] + r + 8 * v, p[j][v]);
        }
    }
    if (r < n)
        for (std::size_t j = 0; j < Cols; ++j)
            Op::fallback()(psum[j] + r, lut[j], lutStride, keys + r,
                           keyStride, chunks, n - r);
}

/** The single-column span kernels: the Cols = 1 walk. */
template <class Op>
void
spanOneAvx512(typename Op::Elem *psum, const typename Op::Elem *lut,
              std::size_t lutStride, const std::uint32_t *keys,
              std::size_t keyStride, std::size_t chunks, std::size_t n)
{
    spanAvx512<Op, 1>(&psum, &lut, lutStride, keys, keyStride, chunks, n);
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
          spanAvx512<IntAdd, 1>(psum, lut, lutStride, keys, keyStride,
                                chunks, n);
          break;
      case 2:
          spanAvx512<IntAdd, 2>(psum, lut, lutStride, keys, keyStride,
                                chunks, n);
          break;
      case 3:
          spanAvx512<IntAdd, 3>(psum, lut, lutStride, keys, keyStride,
                                chunks, n);
          break;
      case 4:
          spanAvx512<IntAdd, 4>(psum, lut, lutStride, keys, keyStride,
                                chunks, n);
          break;
      default:
          break;
    }
}

} // namespace

const SimdKernels &
avx512Kernels()
{
    static const SimdKernels kernels = [] {
        SimdKernels k = avx2Kernels();
        k.isa = SimdIsa::Avx512;
        k.accumFpSpanFp32 = spanOneAvx512<FpFp32Add>;
        k.accumFpSpanExact = spanOneAvx512<FpExactAdd>;
        k.accumIntSpan = spanOneAvx512<IntAdd>;
        k.accumIntSpanCols = accumIntSpanColsAvx512;
        return k;
    }();
    return kernels;
}

} // namespace simd_detail
} // namespace figlut
