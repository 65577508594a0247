#include "core/lut.h"

#include "common/logging.h"

namespace figlut {

LutD::LutD(int mu, std::vector<double> values)
    : mu_(mu), values_(std::move(values))
{
    FIGLUT_ASSERT(mu_ >= 1 && mu_ <= kMaxMu, "mu out of range: ", mu_);
    FIGLUT_ASSERT(values_.size() == lutEntries(mu_),
                  "LUT entry count mismatch");
}

void
LutD::buildDirectInto(const double *xs, int mu, FpArith mode, double *out)
{
    FIGLUT_ASSERT(mu >= 1 && mu <= kMaxMu,
                  "LUT group size out of range: ", mu);
    const uint32_t n = lutEntries(mu);
    for (uint32_t key = 0; key < n; ++key) {
        // First term carries its sign directly; subsequent terms are
        // folded in with one (possibly rounded) add each: mu-1 adds.
        double acc = fpRound(keySign(key, 0, mu) * xs[0], mode);
        for (int j = 1; j < mu; ++j)
            acc = fpAdd(acc, keySign(key, j, mu) * xs[j], mode);
        out[key] = acc;
    }
}

LutD
LutD::buildDirect(const std::vector<double> &xs, FpArith mode)
{
    const int mu = static_cast<int>(xs.size());
    std::vector<double> values(lutEntries(mu), 0.0);
    buildDirectInto(xs.data(), mu, mode, values.data());
    return LutD(mu, std::move(values));
}

LutI::LutI(int mu, std::vector<int64_t> values)
    : mu_(mu), values_(std::move(values))
{
    FIGLUT_ASSERT(mu_ >= 1 && mu_ <= kMaxMu, "mu out of range: ", mu_);
    FIGLUT_ASSERT(values_.size() == lutEntries(mu_),
                  "LUT entry count mismatch");
}

void
LutI::buildDirectInto(const int64_t *xs, int mu, int64_t *out)
{
    FIGLUT_ASSERT(mu >= 1 && mu <= kMaxMu,
                  "LUT group size out of range: ", mu);
    const uint32_t n = lutEntries(mu);
    for (uint32_t key = 0; key < n; ++key) {
        int64_t acc = 0;
        for (int j = 0; j < mu; ++j)
            acc += keySign(key, j, mu) * xs[j];
        out[key] = acc;
    }
}

LutI
LutI::buildDirect(const std::vector<int64_t> &xs)
{
    const int mu = static_cast<int>(xs.size());
    std::vector<int64_t> values(lutEntries(mu), 0);
    buildDirectInto(xs.data(), mu, values.data());
    return LutI(mu, std::move(values));
}

} // namespace figlut
