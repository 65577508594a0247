#include "core/simd.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "common/logging.h"
#include "core/attention_kernel.h"
#include "core/vector_kernels.h"

namespace figlut {

namespace simd_detail {

/**
 * Scalar kernel set — the bit-identity reference every ISA table must
 * reproduce. These are deliberately plain loops: the GEMM contract's
 * round-to-binary32 is the hardware double->float->double round-trip
 * (the same conversion fpRound() applies for FpArith::Fp32, which the
 * Reference-vs-Simd differential suite proves), and the reductions follow the
 * fixed kSimdReduceLanes-strided order documented in simd.h.
 */

void
accumIntSpanScalar(std::int64_t *psum, const std::int64_t *lut,
                   std::size_t lutStride, const std::uint32_t *keys,
                   std::size_t keyStride, std::size_t chunks,
                   std::size_t n)
{
    for (std::size_t r = 0; r < n; ++r) {
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

/** The binary32 round-trip of FpArith::Fp32. */
inline double
f32(double v)
{
    return static_cast<double>(static_cast<float>(v));
}

void
foldIntPlaneFp32Scalar(double *acc, const double *alpha,
                       const std::int64_t *psum, double scale,
                       std::size_t n)
{
    for (std::size_t r = 0; r < n; ++r) {
        const double p = static_cast<double>(psum[r]) * scale;
        acc[r] = f32(acc[r] + f32(alpha[r] * p));
    }
}

void
foldOffsetFp32Scalar(double *acc, const double *off, double sumx,
                     std::size_t n)
{
    for (std::size_t r = 0; r < n; ++r)
        acc[r] = f32(acc[r] + f32(off[r] * sumx));
}

void
addFlatScalar(double *out, const double *a, const double *b,
              std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = a[i] + b[i];
}

double
sumLanesScalar(const double *v, std::size_t n)
{
    double lane[kSimdReduceLanes] = {0.0, 0.0, 0.0, 0.0};
    std::size_t i = 0;
    for (; i + kSimdReduceLanes <= n; i += kSimdReduceLanes)
        for (std::size_t l = 0; l < kSimdReduceLanes; ++l)
            lane[l] += v[i + l];
    for (std::size_t l = 0; i < n; ++i, ++l)
        lane[l] += v[i];
    return ((lane[0] + lane[1]) + lane[2]) + lane[3];
}

double
sumSqDevLanesScalar(const double *v, double mean, std::size_t n)
{
    double lane[kSimdReduceLanes] = {0.0, 0.0, 0.0, 0.0};
    std::size_t i = 0;
    for (; i + kSimdReduceLanes <= n; i += kSimdReduceLanes)
        for (std::size_t l = 0; l < kSimdReduceLanes; ++l) {
            const double d = v[i + l] - mean;
            lane[l] += d * d;
        }
    for (std::size_t l = 0; i < n; ++i, ++l) {
        const double d = v[i] - mean;
        lane[l] += d * d;
    }
    return ((lane[0] + lane[1]) + lane[2]) + lane[3];
}

void
normalizeFlatScalar(double *out, const double *v, double mean,
                    double invStd, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = (v[i] - mean) * invStd;
}

void
geluFlatScalar(double *out, const double *v, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = geluOf(v[i]);
}

const SimdKernels kScalarKernels = {
    SimdIsa::Scalar,        accumIntSpanScalar,
    accumIntSpanColsEach<accumIntSpanScalar>,
    foldIntPlaneFp32Scalar, foldOffsetFp32Scalar,
    addFlatScalar,          sumLanesScalar,
    sumSqDevLanesScalar,    normalizeFlatScalar,
    geluFlatScalar,         attentionHeadBody,
};

#if FIGLUT_HAVE_AVX2_KERNELS
const SimdKernels &avx2Kernels();   // simd_avx2.cpp (built with -mavx2)
const SimdKernels &avx512Kernels(); // simd_avx512.cpp (-mavx512f)
#endif
#if FIGLUT_HAVE_NEON_KERNELS
const SimdKernels &neonKernels(); // simd_neon.cpp
#endif

} // namespace simd_detail

int
simdIsaCode(SimdIsa isa)
{
    switch (isa) {
      case SimdIsa::Scalar: return 0;
      case SimdIsa::Avx2: return 1;
      case SimdIsa::Neon: return 2;
      case SimdIsa::Avx512: return 3;
    }
    return 0;
}

const char *
simdIsaName(SimdIsa isa)
{
    switch (isa) {
      case SimdIsa::Scalar: return "scalar";
      case SimdIsa::Avx2: return "avx2";
      case SimdIsa::Neon: return "neon";
      case SimdIsa::Avx512: return "avx512";
    }
    return "scalar";
}

bool
parseSimdIsa(const std::string &name, SimdIsa *out)
{
    if (name == "scalar")
        *out = SimdIsa::Scalar;
    else if (name == "avx2")
        *out = SimdIsa::Avx2;
    else if (name == "neon")
        *out = SimdIsa::Neon;
    else if (name == "avx512")
        *out = SimdIsa::Avx512;
    else
        return false;
    return true;
}

bool
simdIsaCompiled(SimdIsa isa)
{
    switch (isa) {
      case SimdIsa::Scalar:
          return true;
      case SimdIsa::Avx2:
      case SimdIsa::Avx512: // both x86 units build under FIGLUT_SIMD_AVX2
#if FIGLUT_HAVE_AVX2_KERNELS
          return true;
#else
          return false;
#endif
      case SimdIsa::Neon:
#if FIGLUT_HAVE_NEON_KERNELS
          return true;
#else
          return false;
#endif
    }
    return false;
}

bool
simdIsaSupported(SimdIsa isa)
{
    if (!simdIsaCompiled(isa))
        return false;
    switch (isa) {
      case SimdIsa::Scalar:
          return true;
      case SimdIsa::Avx2:
#if defined(__x86_64__) || defined(__i386__)
          return __builtin_cpu_supports("avx2") != 0;
#else
          return false;
#endif
      case SimdIsa::Avx512:
#if defined(__x86_64__) || defined(__i386__)
          // The AVX-512 table falls back to the AVX2 kernels for tail
          // rows and wide tables, so it needs both.
          return __builtin_cpu_supports("avx512f") != 0 &&
                 __builtin_cpu_supports("avx2") != 0;
#else
          return false;
#endif
      case SimdIsa::Neon:
          // NEON is architecturally mandatory on aarch64; the kernels
          // are only compiled there, so compiled implies executable.
          return true;
    }
    return false;
}

SimdIsa
detectSimdIsa()
{
    if (simdIsaSupported(SimdIsa::Avx512))
        return SimdIsa::Avx512;
    if (simdIsaSupported(SimdIsa::Avx2))
        return SimdIsa::Avx2;
    if (simdIsaSupported(SimdIsa::Neon))
        return SimdIsa::Neon;
    return SimdIsa::Scalar;
}

namespace {

/** Programmatic override: -1 = none, else simdIsaCode of the ISA. */
std::atomic<int> gIsaOverride{-1};

SimdIsa
clampToSupported(SimdIsa isa)
{
    return simdIsaSupported(isa) ? isa : SimdIsa::Scalar;
}

/** FIGLUT_SIMD environment selection, parsed once. */
SimdIsa
envSimdIsa()
{
    static const SimdIsa parsed = [] {
        const char *env = std::getenv("FIGLUT_SIMD");
        if (env == nullptr || *env == '\0' ||
            std::string(env) == "auto")
            return detectSimdIsa();
        SimdIsa isa = SimdIsa::Scalar;
        if (!parseSimdIsa(env, &isa)) {
            warn("FIGLUT_SIMD=", env,
                 " is not scalar|avx2|avx512|neon|auto; using auto");
            return detectSimdIsa();
        }
        const SimdIsa clamped = clampToSupported(isa);
        if (clamped != isa)
            warn("FIGLUT_SIMD=", env,
                 " is not supported by this build/CPU; ",
                 "falling back to scalar");
        return clamped;
    }();
    return parsed;
}

SimdIsa
isaFromCode(int code)
{
    switch (code) {
      case 1: return SimdIsa::Avx2;
      case 2: return SimdIsa::Neon;
      case 3: return SimdIsa::Avx512;
      default: return SimdIsa::Scalar;
    }
}

} // namespace

SimdIsa
activeSimdIsa()
{
    const int forced = gIsaOverride.load(std::memory_order_relaxed);
    if (forced >= 0)
        return isaFromCode(forced);
    return envSimdIsa();
}

SimdIsa
setSimdIsaOverride(SimdIsa isa)
{
    const SimdIsa clamped = clampToSupported(isa);
    gIsaOverride.store(simdIsaCode(clamped),
                       std::memory_order_relaxed);
    return clamped;
}

void
clearSimdIsaOverride()
{
    gIsaOverride.store(-1, std::memory_order_relaxed);
}

const SimdKernels &
simdKernelsFor(SimdIsa isa)
{
    switch (clampToSupported(isa)) {
      case SimdIsa::Scalar:
          break;
      case SimdIsa::Avx2:
#if FIGLUT_HAVE_AVX2_KERNELS
          return simd_detail::avx2Kernels();
#else
          break;
#endif
      case SimdIsa::Avx512:
#if FIGLUT_HAVE_AVX2_KERNELS
          return simd_detail::avx512Kernels();
#else
          break;
#endif
      case SimdIsa::Neon:
#if FIGLUT_HAVE_NEON_KERNELS
          return simd_detail::neonKernels();
#else
          break;
#endif
    }
    return simd_detail::kScalarKernels;
}

const SimdKernels &
simdKernels()
{
    return simdKernelsFor(activeSimdIsa());
}

double
kernelExp(double x)
{
    return simd_detail::expBody(x);
}

double
kernelGelu(double x)
{
    return simd_detail::geluOf(x);
}

} // namespace figlut
