#include "percentile.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::size_t
nearestRank(double p, std::size_t n)
{
    const auto rank =
        static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    return std::clamp<std::size_t>(rank, 1, n);
}

std::size_t
samplesBeyond(double p, std::size_t n)
{
    return n == 0 ? 0 : n - nearestRank(p, n);
}

std::optional<double>
percentile(std::vector<double> samples, double p)
{
    if (samplesBeyond(p, samples.size()) < kMinBeyond)
        return std::nullopt;
    const std::size_t k = nearestRank(p, samples.size()) - 1;
    std::nth_element(samples.begin(), samples.begin() + k, samples.end());
    return samples[k];
}

double
mean(const std::vector<double> &samples)
{
    if (samples.empty())
        return 0.0;
    double sum = 0.0;
    for (const double s : samples)
        sum += s;
    return sum / static_cast<double>(samples.size());
}

} // namespace perfbench
