/**
 * @file
 * Nearest-rank percentiles with a sample-support rule.
 *
 * The p-th percentile of n samples is the sample at rank ceil(p/100*n)
 * of the sorted list. A percentile is only reported when at least
 * kMinBeyond samples lie above that rank: a p90 over 20 samples is
 * the second-largest value and says little, so it is withheld.
 */

#ifndef PERFBENCH_PERCENTILE_H
#define PERFBENCH_PERCENTILE_H

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/** Samples that must lie beyond a reported percentile. */
inline constexpr std::size_t kMinBeyond = 10;

/** 1-based nearest rank of percentile p (0 < p <= 100) among n. */
std::size_t nearestRank(double p, std::size_t n);

/** Samples strictly beyond the nearest rank of p among n. */
std::size_t samplesBeyond(double p, std::size_t n);

/** Nearest-rank percentile, or nullopt when fewer than kMinBeyond
 *  samples lie beyond it (empty input included). */
std::optional<double> percentile(std::vector<double> samples, double p);

/** Arithmetic mean (0 for no samples). */
double mean(const std::vector<double> &samples);

} // namespace perfbench

#endif // PERFBENCH_PERCENTILE_H
