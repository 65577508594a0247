/**
 * @file
 * AVX-512 span kernels: register-resident LUT reads.
 *
 * FIGLUT keeps each chunk's LUT in flip-flops (FFLUT) rather than a
 * ported memory so that many read-accumulate lanes can read it in the
 * same cycle. The host analogue here: for lutStride <= 16 (mu <= 4) a
 * chunk's decoded table fits in two zmm registers, and one
 * VPERMT2Q/VPERMT2PD looks up 8 rows at once on the shuffle port
 * instead of 8 gather lanes through the L1 load ports. Tail rows
 * (n % 32) and wider tables go to the AVX2 kernels, which stay the
 * only gather implementation; every non-span entry of the table is
 * the AVX2 one.
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
 * registers. The masked loads read exactly lutStride entries, so a
 * table narrower than 16 never touches memory past its slab; keys are
 * below lutStride, so the zeroed lanes are never selected.
 */
template <class Op>
void
spanAvx512(typename Op::Elem *psum, const typename Op::Elem *lut,
           std::size_t lutStride, const std::uint32_t *keys,
           std::size_t keyStride, std::size_t chunks, std::size_t n)
{
    using Vec = typename Op::Vec;
    std::size_t r = 0;
    if (lutStride <= kRegTableEntries) {
        const __mmask8 loMask = static_cast<__mmask8>(
            lutStride >= 8 ? 0xFFu : (1u << lutStride) - 1u);
        const __mmask8 hiMask = static_cast<__mmask8>(
            lutStride > 8 ? (1u << (lutStride - 8)) - 1u : 0u);
        for (; r + kBlockRows <= n; r += kBlockRows) {
            Vec p0 = Op::load(psum + r);
            Vec p1 = Op::load(psum + r + 8);
            Vec p2 = Op::load(psum + r + 16);
            Vec p3 = Op::load(psum + r + 24);
            const typename Op::Elem *l = lut;
            const std::uint32_t *k = keys + r;
            for (std::size_t c = 0; c < chunks; ++c) {
                const Vec lo = Op::loadMasked(loMask, l);
                const Vec hi = Op::loadMasked(hiMask, l + 8);
                p0 = Op::add(p0, Op::lookup(lo, rowKeys(k), hi));
                p1 = Op::add(p1, Op::lookup(lo, rowKeys(k + 8), hi));
                p2 = Op::add(p2, Op::lookup(lo, rowKeys(k + 16), hi));
                p3 = Op::add(p3, Op::lookup(lo, rowKeys(k + 24), hi));
                l += lutStride;
                k += keyStride;
            }
            Op::store(psum + r, p0);
            Op::store(psum + r + 8, p1);
            Op::store(psum + r + 16, p2);
            Op::store(psum + r + 24, p3);
        }
    }
    if (r < n)
        Op::fallback()(psum + r, lut, lutStride, keys + r, keyStride,
                       chunks, n - r);
}

} // namespace

const SimdKernels &
avx512Kernels()
{
    static const SimdKernels kernels = [] {
        SimdKernels k = avx2Kernels();
        k.isa = SimdIsa::Avx512;
        k.accumFpSpanFp32 = spanAvx512<FpFp32Add>;
        k.accumFpSpanExact = spanAvx512<FpExactAdd>;
        k.accumIntSpan = spanAvx512<IntAdd>;
        return k;
    }();
    return kernels;
}

} // namespace simd_detail
} // namespace figlut
