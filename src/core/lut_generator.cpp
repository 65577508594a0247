#include "core/lut_generator.h"

#include <array>
#include <utility>

#include "common/logging.h"

namespace figlut {

GeneratorStats
lutGeneratorAdderCount(int mu)
{
    FIGLUT_ASSERT(mu >= 2 && mu <= kMaxMu,
                  "generator accounting needs mu in [2, ", kMaxMu, "]");
    GeneratorStats s;
    s.mu = mu;

    const int h = (mu + 1) / 2;   // upper part size (leading sign fixed)
    const int l = mu - h;         // lower part size (all signs free)

    // Upper: 2^(h-1) patterns, each chains h-1 adds.
    s.upperAdds = static_cast<uint64_t>(lutEntries(h - 1)) *
                  static_cast<uint64_t>(h - 1);
    // Lower: 2^l patterns, each chains l-1 adds (l = 1 costs nothing:
    // +x and -x are wire/sign taps).
    s.lowerAdds = l >= 1
                      ? static_cast<uint64_t>(lutEntries(l)) *
                            static_cast<uint64_t>(l - 1)
                      : 0;
    // Combine: one add per (upper, lower) pair = 2^(mu-1).
    s.combineAdds = l >= 1 ? lutEntries(mu - 1) : 0;

    s.treeAdds = s.upperAdds + s.lowerAdds + s.combineAdds;
    s.naiveAdds = static_cast<uint64_t>(lutEntries(mu - 1)) *
                  static_cast<uint64_t>(mu - 1);
    s.savingRatio =
        s.naiveAdds
            ? 1.0 - static_cast<double>(s.treeAdds) /
                        static_cast<double>(s.naiveAdds)
            : 0.0;
    return s;
}

namespace {

/**
 * The tree generator's full-table fill at a compile-time mu, so every
 * loop bound and key shift is a constant. Upper patterns fix the
 * leading sign + and enumerate the signs of x2..xh (bit value 1 =>
 * +), MSB-first to match the key layout; lower patterns enumerate all
 * sign combinations of x_{h+1}..x_mu. Each (upper, lower) pair is
 * combined at stored index msb | (upper bits << l) | lower bits, and
 * mirrored into the full table: MSB = 1 entries are the generated
 * half, MSB = 0 entries their negated complements.
 */
template <int Mu>
void
generateFullFp(const double *xs, double *out, FpArith mode)
{
    constexpr int h = (Mu + 1) / 2;
    constexpr int l = Mu - h; // >= 1, since Mu >= 2

    constexpr uint32_t upper_n = lutEntries(h - 1);
    std::array<double, upper_n> upper{};
    for (uint32_t u = 0; u < upper_n; ++u) {
        double acc = fpRound(xs[0], mode);
        for (int j = 1; j < h; ++j) {
            const int sign = ((u >> (h - 1 - j)) & 1u) ? 1 : -1;
            acc = fpAdd(acc, sign * xs[static_cast<std::size_t>(j)], mode);
        }
        upper[u] = acc;
    }

    constexpr uint32_t lower_n = lutEntries(l);
    std::array<double, lower_n> lower{};
    for (uint32_t p = 0; p < lower_n; ++p) {
        const int sign0 = ((p >> (l - 1)) & 1u) ? 1 : -1;
        double acc = fpRound(sign0 * xs[static_cast<std::size_t>(h)], mode);
        for (int j = 1; j < l; ++j) {
            const int sign = ((p >> (l - 1 - j)) & 1u) ? 1 : -1;
            acc = fpAdd(acc, sign * xs[static_cast<std::size_t>(h + j)],
                        mode);
        }
        lower[p] = acc;
    }

    constexpr uint32_t msb = 1u << (Mu - 1);
    for (uint32_t u = 0; u < upper_n; ++u) {
        for (uint32_t p = 0; p < lower_n; ++p) {
            const uint32_t key = msb | (u << l) | p;
            const double v = fpAdd(upper[u], lower[p], mode);
            out[key] = v;
            out[complementKey(key, Mu)] = -v;
        }
    }
}

/** Integer-mantissa generateFullFp() (exact adds, same order). */
template <int Mu>
void
generateFullInt(const int64_t *xs, int64_t *out)
{
    constexpr int h = (Mu + 1) / 2;
    constexpr int l = Mu - h;

    constexpr uint32_t upper_n = lutEntries(h - 1);
    std::array<int64_t, upper_n> upper{};
    for (uint32_t u = 0; u < upper_n; ++u) {
        int64_t acc = xs[0];
        for (int j = 1; j < h; ++j) {
            const int sign = ((u >> (h - 1 - j)) & 1u) ? 1 : -1;
            acc += sign * xs[static_cast<std::size_t>(j)];
        }
        upper[u] = acc;
    }

    constexpr uint32_t lower_n = lutEntries(l);
    std::array<int64_t, lower_n> lower{};
    for (uint32_t p = 0; p < lower_n; ++p) {
        int64_t acc = 0;
        for (int j = 0; j < l; ++j) {
            const int sign = ((p >> (l - 1 - j)) & 1u) ? 1 : -1;
            acc += sign * xs[static_cast<std::size_t>(h + j)];
        }
        lower[p] = acc;
    }

    constexpr uint32_t msb = 1u << (Mu - 1);
    for (uint32_t u = 0; u < upper_n; ++u) {
        for (uint32_t p = 0; p < lower_n; ++p) {
            const uint32_t key = msb | (u << l) | p;
            const int64_t v = upper[u] + lower[p];
            out[key] = v;
            out[complementKey(key, Mu)] = -v;
        }
    }
}

/** Both fills instantiated for every mu in [2, kMaxMu], indexed by mu. */
template <int... Mu>
constexpr std::array<LutGenerator::FpFill, kMaxMu + 1>
fpFills(std::integer_sequence<int, Mu...>)
{
    return {nullptr, nullptr, &generateFullFp<Mu + 2>...};
}

template <int... Mu>
constexpr std::array<LutGenerator::IntFill, kMaxMu + 1>
intFills(std::integer_sequence<int, Mu...>)
{
    return {nullptr, nullptr, &generateFullInt<Mu + 2>...};
}

constexpr auto kFpFills =
    fpFills(std::make_integer_sequence<int, kMaxMu - 1>{});
constexpr auto kIntFills =
    intFills(std::make_integer_sequence<int, kMaxMu - 1>{});

} // namespace

LutGenerator::LutGenerator(int mu, FpArith mode)
    : mu_(mu), mode_(mode), stats_(lutGeneratorAdderCount(mu)),
      fpFill_(kFpFills[static_cast<std::size_t>(mu)]),
      intFill_(kIntFills[static_cast<std::size_t>(mu)])
{}

void
LutGenerator::generateFullInto(const double *xs, double *out) const
{
    fpFill_(xs, out, mode_);
}

void
LutGenerator::generateFullIntInto(const int64_t *xs, int64_t *out) const
{
    intFill_(xs, out);
}

HalfLutD
LutGenerator::generateHalf(const std::vector<double> &xs) const
{
    FIGLUT_ASSERT(static_cast<int>(xs.size()) == mu_,
                  "generator expects ", mu_, " activations, got ",
                  xs.size());
    // Rebuilding through the public direct-build path would lose the
    // tree rounding order; construct via fromFull on a mirrored table.
    std::vector<double> full(lutEntries(mu_), 0.0);
    generateFullInto(xs.data(), full.data());
    return HalfLutD::fromFull(LutD(mu_, std::move(full)));
}

HalfLutI
LutGenerator::generateHalfInt(const std::vector<int64_t> &xs) const
{
    FIGLUT_ASSERT(static_cast<int>(xs.size()) == mu_,
                  "generator expects ", mu_, " mantissas, got ",
                  xs.size());
    std::vector<int64_t> full(lutEntries(mu_), 0);
    generateFullIntInto(xs.data(), full.data());
    return HalfLutI::fromFull(LutI(mu_, std::move(full)));
}

} // namespace figlut
