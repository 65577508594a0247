/**
 * @file
 * The repo's deterministic exp and GELU (kernelExp, kernelGelu in
 * core/simd.h):
 *  - accuracy: exp against expl over the range where e^x is a normal
 *    double, and GELU against a long double evaluation of the same
 *    formula on [-10, 10];
 *  - absolute golden pins: about 40 (input, expected bit pattern)
 *    pairs each for exp and GELU, special values and range edges
 *    included, checked on the scalar functions and under every
 *    supported ISA (GELU through each table's geluFlat, exp through
 *    each table's attention softmax). Unlike the differential suites,
 *    which compare one table against another, these fail if every
 *    table changes the same way, and no libm result enters them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/simd.h"

namespace figlut {
namespace {

double
fromBits(std::uint64_t b)
{
    double d;
    std::memcpy(&d, &b, sizeof d);
    return d;
}

std::uint64_t
toBits(double d)
{
    std::uint64_t b;
    std::memcpy(&b, &d, sizeof b);
    return b;
}

/** One golden pair: the input's and the expected result's bits. */
struct Pin
{
    std::uint64_t x, want;
};

// clang-format off
const Pin kExpPins[] = {
    {0x0000000000000000, 0x3ff0000000000000}, // exp(0) = 1
    {0x8000000000000000, 0x3ff0000000000000}, // exp(-0) = 1
    {0x3c30000000000000, 0x3ff0000000000000}, // exp(2^-60) = 1
    {0xbc30000000000000, 0x3ff0000000000000}, // exp(-2^-60) = 1
    {0x01a56e1fc2f8f359, 0x3ff0000000000000}, // exp(1e-300) = 1
    {0x3fc0000000000000, 0x3ff2216045b6f5cd}, // exp(0.125)
    {0xbfc0000000000000, 0x3fec3d6a24ed8222}, // exp(-0.125)
    {0x3fe0000000000000, 0x3ffa61298e1e069c}, // exp(0.5)
    {0xbfe0000000000000, 0x3fe368b2fc6f960a}, // exp(-0.5)
    {0x3fd62e42fefa39ef, 0x3ff6a09e667f3bcc}, // exp(ln2 / 2)
    {0xbfd62e42fefa39ef, 0x3fe6a09e667f3bcc}, // exp(-ln2 / 2)
    {0x3fe62e42fefa39ef, 0x4000000000000000}, // exp(ln2) = 2
    {0x3ff0000000000000, 0x4005bf0a8b14576a}, // exp(1)
    {0xbff0000000000000, 0x3fd78b56362cef38}, // exp(-1)
    {0x4004000000000000, 0x40285d6fd931e0bb}, // exp(2.5)
    {0xc00e000000000000, 0x3f981509354f0d29}, // exp(-3.75)
    {0x4024000000000000, 0x40d5829dcf950560}, // exp(10)
    {0xc024000000000000, 0x3f07cd79b5647c9a}, // exp(-10)
    {0xc031400000000000, 0x3e614f49dbc5078c}, // exp(-17.25)
    {0x4034800000000000, 0x41c7d6c4f0bcdd5c}, // exp(20.5)
    {0xc042600000000000, 0x3c9f9494acde2139}, // exp(-36.75)
    {0x4059000000000000, 0x48f3494a9b171bf5}, // exp(100)
    {0xc059000000000000, 0x36ea8c1f14e2af5d}, // exp(-100)
    {0x4085e00000000000, 0x7f0d945df4f8ec8e}, // exp(700)
    {0xc085e00000000000, 0x00d14f2b0fb9307f}, // exp(-700)
    {0x40862e42fefa39ef, 0x7fefffffffffff2a}, // exp(709.78...), largest finite
    {0x40862e42fefa39f0, 0x7ff0000000000000}, // its successor: +inf
    {0x4086300000000000, 0x7ff0000000000000}, // exp(710) = +inf
    {0x408f400000000000, 0x7ff0000000000000}, // exp(1000) = +inf
    {0x7ff0000000000000, 0x7ff0000000000000}, // exp(+inf) = +inf
    {0xc086232bdd7abcd2, 0x001000000000007c}, // exp(-708.396...), smallest normal
    {0xc086240000000000, 0x000e6cf6d08897ac}, // exp(-708.5), subnormal
    {0xc086800000000000, 0x0000000993b4dc95}, // exp(-720), subnormal
    {0xc0874910d52d3051, 0x0000000000000001}, // exp(-745.133...) = 2^-1074
    {0xc0874910d52d3052, 0x0000000000000000}, // its successor: 0
    {0xc0874c0000000000, 0x0000000000000000}, // exp(-745.5) = 0
    {0xc087500000000000, 0x0000000000000000}, // exp(-746) = 0
    {0xc08f400000000000, 0x0000000000000000}, // exp(-1000) = 0
    {0xfff0000000000000, 0x0000000000000000}, // exp(-inf) = 0
    {0x7ff8000000000000, 0x7ff8000000000000}, // exp(NaN) = the NaN
};

const Pin kGeluPins[] = {
    {0x0000000000000000, 0x0000000000000000}, // gelu(0) = 0
    {0x8000000000000000, 0x8000000000000000}, // gelu(-0) = -0
    {0x0000000000000001, 0x0000000000000000}, // gelu(2^-1074) = 0
    {0x3ddb7cdfd9d7bdbb, 0x3dcb7cdfd9e12930}, // gelu(1e-10)
    {0xbddb7cdfd9d7bdbb, 0xbdcb7cdfd9ce5244}, // gelu(-1e-10)
    {0x3fd0000000000000, 0x3fc3288fd823fa07}, // gelu(0.25)
    {0xbfd0000000000000, 0xbfb9aee04fb80bf2}, // gelu(-0.25)
    {0x3fe0000000000000, 0x3fd6202da77df3f9}, // gelu(0.5)
    {0xbfe0000000000000, 0xbfc3bfa4b104180f}, // gelu(-0.5)
    {0x3fe8000000000000, 0x3fe28f09702d00c3}, // gelu(0.75)
    {0xbfe8000000000000, 0xbfc5c3da3f4bfcf2}, // gelu(-0.75), near the minimum
    {0x3ff0000000000000, 0x3feaeb0b772a3ae2}, // gelu(1)
    {0xbff0000000000000, 0xbfc453d223571479}, // gelu(-1)
    {0x3ff8000000000000, 0x3ff664a52a78a8f2}, // gelu(1.5)
    {0xbff8000000000000, 0xbfb9b5ad587570d7}, // gelu(-1.5)
    {0x4000000000000000, 0x3fff46083b4f1aa7}, // gelu(2)
    {0xc000000000000000, 0xbfa73ef8961cab34}, // gelu(-2)
    {0x4008000000000000, 0x4007f88cf57fba7c}, // gelu(3)
    {0xc008000000000000, 0xbf6dcc2a011612b8}, // gelu(-3)
    {0x4010000000000000, 0x400fffdb2bbf9944}, // gelu(4)
    {0xc010000000000000, 0xbf126a20335ddd3a}, // gelu(-4)
    {0x4018000000000000, 0x4017fffffffe8cd2}, // gelu(6)
    {0xc018000000000000, 0xbdd732df96e75a71}, // gelu(-6)
    {0x4020000000000000, 0x4020000000000000}, // gelu(8) = 8
    {0xc020000000000000, 0xbbad5a2877434656}, // gelu(-8)
    {0x4024000000000000, 0x4024000000000000}, // gelu(10) = 10
    {0xc024000000000000, 0xb8447c8fd5284fd8}, // gelu(-10)
    {0xc035000000000000, 0x8199c99db33e6af1}, // gelu(-21), exp near its top
    {0x4035400000000000, 0x4035400000000000}, // gelu(21.25) = 21.25
    {0xc035400000000000, 0x8000000000000000}, // gelu(-21.25): exp is +inf
    {0x4059000000000000, 0x4059000000000000}, // gelu(100) = 100
    {0xc059000000000000, 0x8000000000000000}, // gelu(-100) = -0
    {0x408f400000000000, 0x408f400000000000}, // gelu(1000) = 1000
    {0xc08f400000000000, 0x8000000000000000}, // gelu(-1000) = -0
    {0x6974e718d7d7625a, 0x6974e718d7d7625a}, // gelu(1e200): x^3 is +inf
    {0xe974e718d7d7625a, 0x8000000000000000}, // gelu(-1e200) = -0
    {0x7fefffffffffffff, 0x7fefffffffffffff}, // gelu(DBL_MAX) = DBL_MAX
    {0x7ff0000000000000, 0x7ff0000000000000}, // gelu(+inf) = +inf
    {0xfff0000000000000, 0x7ff8000000000000}, // gelu(-inf) = -inf / inf: NaN
    {0x7ff8000000000000, 0x7ff8000000000000}, // gelu(NaN) = the NaN
};
// clang-format on

/**
 * True when `got` is the pinned result: the same bits, or NaN for a
 * pinned NaN. A NaN that an operation makes (inf / inf) has its sign
 * from the platform: negative on x86, positive on arm64.
 */
bool
matchesPin(double got, std::uint64_t want)
{
    const double w = fromBits(want);
    return w != w ? got != got : toBits(got) == want;
}

/** Every ISA this binary and host run, Scalar first. */
std::vector<SimdIsa>
supportedIsas()
{
    std::vector<SimdIsa> isas;
    for (const auto isa : {SimdIsa::Scalar, SimdIsa::Avx2, SimdIsa::Neon,
                           SimdIsa::Avx512})
        if (simdIsaSupported(isa))
            isas.push_back(isa);
    return isas;
}

/** |got - want| in units of the last place of want, a normal double. */
long double
ulpError(double got, long double want)
{
    const long double ulp =
        std::ldexp(1.0L, std::ilogb(std::fabs(want)) - 52);
    return std::fabs(static_cast<long double>(got) - want) / ulp;
}

TEST(KernelExp, WithinTwoUlpOfExplOnNormalRange)
{
    // The range where e^x is a normal double, then the reduction's
    // interior |x| <= 1 and tiny |x| down to 2^-60.
    Rng rng(2700);
    long double worst = 0.0L;
    double worstX = 0.0;
    for (int i = 0; i < 600000; ++i) {
        double x;
        if (i % 3 == 0)
            x = rng.uniform(-708.39, 709.78);
        else if (i % 3 == 1)
            x = rng.uniform(-1.0, 1.0);
        else
            x = (rng.uniformInt(0, 1) == 1 ? -1.0 : 1.0) *
                std::ldexp(1.0, -static_cast<int>(rng.uniformInt(0, 60))) *
                rng.uniform(1.0, 2.0);
        const long double err =
            ulpError(kernelExp(x), std::exp(static_cast<long double>(x)));
        if (err > worst) {
            worst = err;
            worstX = x;
        }
    }
    std::printf("kernelExp max error %.3Lf ulp at x = %.17g\n", worst,
                worstX);
    EXPECT_LE(worst, 2.0L) << "x = " << worstX;
}

/** GELU's formula in long double, the accuracy reference. */
long double
geluLong(long double x)
{
    const long double k =
        std::sqrt(2.0L / 3.141592653589793238462643383279502884L);
    return x / (1.0L + std::exp(-2.0L * k * (x + 0.044715L * x * x * x)));
}

TEST(KernelGelu, MatchesLongDoubleReference)
{
    // Dense on [-10, 10] at steps of 2^-14. The error grows for
    // negative x with |exp's argument|, which amplifies the argument's
    // own rounding: under 8 ulp on [-2, 10], about 230 near -9.5.
    long double worst = 0.0L, worstNear = 0.0L;
    double worstX = 0.0;
    for (int i = -163840; i <= 163840; ++i) {
        const double x = std::ldexp(static_cast<double>(i), -14);
        if (x == 0.0)
            continue;
        const long double err =
            ulpError(kernelGelu(x), geluLong(static_cast<long double>(x)));
        if (x >= -2.0)
            worstNear = std::max(worstNear, err);
        if (err > worst) {
            worst = err;
            worstX = x;
        }
    }
    std::printf("kernelGelu max error %.3Lf ulp on [-10, 10] (at x = "
                "%.17g), %.3Lf ulp on [-2, 10]\n",
                worst, worstX, worstNear);
    EXPECT_LE(worst, 256.0L) << "x = " << worstX;
    EXPECT_LE(worstNear, 8.0L);
}

TEST(KernelExp, GoldenBits)
{
    for (const Pin &p : kExpPins)
        EXPECT_TRUE(matchesPin(kernelExp(fromBits(p.x)), p.want))
            << "exp(" << fromBits(p.x) << ") = " << kernelExp(fromBits(p.x));
}

TEST(KernelGelu, GoldenBits)
{
    for (const Pin &p : kGeluPins)
        EXPECT_TRUE(matchesPin(kernelGelu(fromBits(p.x)), p.want))
            << "gelu(" << fromBits(p.x) << ") = "
            << kernelGelu(fromBits(p.x));
}

/**
 * Each table's geluFlat over the GELU pins, at every offset into the
 * array, so each pin lands in every vector lane and in the scalar
 * tail.
 */
TEST(KernelGelu, GoldenBitsUnderEveryIsa)
{
    std::vector<double> in;
    for (const Pin &p : kGeluPins)
        in.push_back(fromBits(p.x));
    const std::size_t n = in.size();
    for (const auto isa : supportedIsas()) {
        const SimdKernels &k = simdKernelsFor(isa);
        for (std::size_t shift = 0; shift < 8; ++shift) {
            std::vector<double> x(shift, 0.0), out(shift + n);
            x.insert(x.end(), in.begin(), in.end());
            k.geluFlat(out.data(), x.data(), x.size());
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_TRUE(matchesPin(out[shift + i], kGeluPins[i].want))
                    << simdIsaName(isa) << " shift " << shift << " gelu("
                    << in[i] << ") = " << out[shift + i];
        }
    }
}

/**
 * Each table's attention softmax over the exp pins with x <= 0: the
 * scores of token t are s[t % m] (s[0] = 0, so every max is 0 and
 * each softmax reads the pinned exp(s) for its scores), V is one-hot,
 * so output element d of column j is column j's probability at token
 * d, which must equal the pinned exp divided by the in-order sum of
 * the pinned exps. Column counts 1, 3, 8 and 11 run the token-lane
 * softmax, the column-lane one and its causal tail.
 */
TEST(KernelExp, GoldenBitsThroughEveryIsaSoftmax)
{
    std::vector<double> s{0.0};
    std::vector<std::uint64_t> e{toBits(1.0)};
    for (const Pin &p : kExpPins) {
        const double x = fromBits(p.x);
        if (x <= 0.0 && x != 0.0) { // finite or -inf; not NaN, not +0
            s.push_back(x);
            e.push_back(p.want);
        }
    }
    const std::size_t m = s.size();
    constexpr std::size_t kHeadDim = 40;

    for (const std::size_t columns : {1u, 3u, 8u, 11u}) {
        const std::size_t tokens = m - 1 + columns;
        ASSERT_LE(tokens, kHeadDim);
        // Token t's key scores s[t % m] against a query (1, 0, ...);
        // its value is the unit vector d = t.
        std::vector<double> keys(tokens * kHeadDim, 0.0),
            values(tokens * kHeadDim, 0.0);
        std::vector<const double *> k(tokens), v(tokens);
        for (std::size_t t = 0; t < tokens; ++t) {
            keys[t * kHeadDim] = s[t % m];
            values[t * kHeadDim + t] = 1.0;
            k[t] = keys.data() + t * kHeadDim;
            v[t] = values.data() + t * kHeadDim;
        }
        std::vector<double> q(kHeadDim * columns, 0.0);
        for (std::size_t j = 0; j < columns; ++j)
            q[j] = 1.0;

        for (const auto isa : supportedIsas()) {
            std::vector<double> scores(kAttnBlockCols * tokens),
                out(kHeadDim * columns);
            AttentionHead head;
            head.q = q.data();
            head.qStride = columns;
            head.k = k.data();
            head.v = v.data();
            head.tokens = tokens;
            head.columns = columns;
            head.headDim = kHeadDim;
            head.scale = 1.0;
            head.scores = scores.data();
            head.out = out.data();
            head.outStride = columns;
            simdKernelsFor(isa).attentionHead(head);

            for (std::size_t j = 0; j < columns; ++j) {
                const std::size_t seen = m + j;
                double sum = 0.0;
                for (std::size_t t = 0; t < seen; ++t)
                    sum += fromBits(e[t % m]);
                for (std::size_t t = 0; t < seen; ++t)
                    EXPECT_EQ(toBits(out[t * columns + j]),
                              toBits(fromBits(e[t % m]) / sum))
                        << simdIsaName(isa) << " columns " << columns
                        << " column " << j << " exp(" << s[t % m] << ")";
            }
        }
    }
}

} // namespace
} // namespace figlut
