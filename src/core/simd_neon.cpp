/**
 * @file
 * NEON (aarch64) table of SimdKernels: the int64 span kernel in NEON
 * intrinsics, and every other entry from the generic-vector bodies of
 * core/vector_kernels.h and core/attention_kernel.h at 2 doubles per
 * vector. The 2-lane bodies are also compiled at the baseline ISA by
 * tests/core/test_vector_kernels.cpp, so every x86 build tests them.
 *
 * NEON is architecturally mandatory on aarch64, so unlike the AVX2
 * translation unit this one needs no extra -m flag — CMake only adds
 * it when targeting aarch64, and the dispatcher treats compiled-in as
 * executable.
 */

#include "core/simd.h"

#if !defined(__aarch64__)
#error "simd_neon.cpp is aarch64-only"
#endif

#include <arm_neon.h>

#include "core/attention_kernel.h"
#include "core/vector_kernels.h"

namespace figlut {
namespace simd_detail {

namespace {

/**
 * The span kernel keeps two 2-lane vectors (4 rows) of partial sums
 * in registers across the whole chunk walk; LUT reads are staged
 * through a small array since NEON has no gather. Per-row order is
 * chunk-sequential exactly as in the scalar contract.
 */

void
accumIntSpanNeon(std::int64_t *psum, const std::int64_t *lut,
                 std::size_t lutStride, const std::uint32_t *keys,
                 std::size_t keyStride, std::size_t chunks,
                 std::size_t n)
{
    std::size_t r = 0;
    for (; r + 4 <= n; r += 4) {
        int64x2_t p0 = vld1q_s64(psum + r);
        int64x2_t p1 = vld1q_s64(psum + r + 2);
        const std::int64_t *l = lut;
        const std::uint32_t *k = keys + r;
        for (std::size_t c = 0; c < chunks; ++c) {
            const std::int64_t s0[2] = {l[k[0]], l[k[1]]};
            const std::int64_t s1[2] = {l[k[2]], l[k[3]]};
            p0 = vaddq_s64(p0, vld1q_s64(s0));
            p1 = vaddq_s64(p1, vld1q_s64(s1));
            l += lutStride;
            k += keyStride;
        }
        vst1q_s64(psum + r, p0);
        vst1q_s64(psum + r + 2, p1);
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

const SimdKernels kNeonKernels = {
    SimdIsa::Neon,        accumIntSpanNeon,
    accumIntSpanColsEach<accumIntSpanNeon>,
    foldIntPlaneFp32Body, foldOffsetFp32Body,
    addFlatBody,          sumLanesBody,
    sumSqDevLanesBody,    normalizeFlatBody,
    geluFlatBody,         attentionHeadBody,
};

} // namespace

const SimdKernels &
neonKernels()
{
    return kNeonKernels;
}

} // namespace simd_detail
} // namespace figlut
