#ifndef PCBENCH_PERCENTILE_H_
#define PCBENCH_PERCENTILE_H_

/**
 * @file
 * Percentiles over the benchmark's own raw samples.
 *
 * Linear interpolation between closest ranks (the "inclusive" /
 * type-7 definition, as numpy's default and Python's
 * statistics.quantiles(method="inclusive")): for n sorted samples the
 * p-quantile sits at fractional rank h = (n - 1) * p. No bucketing, so
 * sub-millisecond latencies are reported as measured.
 */

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

namespace pcbench {

/** p-quantile (p in [0, 1]) of @p samples; throws on an empty set. */
inline double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty()) {
        throw std::invalid_argument("percentile of an empty sample set");
    }
    if (!(p >= 0.0 && p <= 1.0)) {
        throw std::invalid_argument("percentile rank outside [0, 1]");
    }
    std::sort(samples.begin(), samples.end());
    const double h = static_cast<double>(samples.size() - 1) * p;
    const auto lo = static_cast<std::size_t>(std::floor(h));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] + (h - static_cast<double>(lo)) *
                             (samples[hi] - samples[lo]);
}

/** Median of @p samples; throws on an empty set. */
inline double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 0.5);
}

/**
 * Median over @p windows of each window's p-quantile. A burst of host
 * noise confined to a minority of the windows does not move the result,
 * which a single quantile over the whole run would absorb. Throws when
 * there is no window or a window is empty.
 */
inline double
median_of_percentiles(const std::vector<std::vector<double>>& windows,
                      double p)
{
    if (windows.empty()) {
        throw std::invalid_argument("no window to take a percentile of");
    }
    std::vector<double> per_window;
    for (const std::vector<double>& window : windows) {
        per_window.push_back(percentile(window, p));
    }
    return median(std::move(per_window));
}

/**
 * @p samples (kept in arrival order) cut into @p windows consecutive
 * slices whose sizes differ by at most one. Throws when @p windows is 0
 * or exceeds the sample count.
 */
inline std::vector<std::vector<double>>
split_windows(const std::vector<double>& samples, std::size_t windows)
{
    if (windows == 0 || windows > samples.size()) {
        throw std::invalid_argument("bad window count for the samples");
    }
    std::vector<std::vector<double>> slices;
    for (std::size_t w = 0; w < windows; ++w) {
        const auto begin = samples.begin() +
                           static_cast<std::ptrdiff_t>(samples.size() * w /
                                                       windows);
        const auto end = samples.begin() +
                         static_cast<std::ptrdiff_t>(samples.size() *
                                                     (w + 1) / windows);
        slices.emplace_back(begin, end);
    }
    return slices;
}

/**
 * Windows cut at the times @p starts: window j holds the values of
 * @p timed (time, value) pairs whose time lies in [starts[j],
 * starts[j + 1]), in input order. Values before the first start or at or
 * after the last are left out, and so are windows that hold none.
 */
inline std::vector<std::vector<double>>
split_at(const std::vector<std::pair<double, double>>& timed,
         std::vector<double> starts)
{
    std::sort(starts.begin(), starts.end());
    std::vector<std::vector<double>> windows(
        starts.empty() ? 0 : starts.size() - 1);
    for (const auto& [time, value] : timed) {
        const auto next =
            std::upper_bound(starts.begin(), starts.end(), time);
        if (next != starts.begin() && next != starts.end()) {
            windows[next - starts.begin() - 1].push_back(value);
        }
    }
    std::erase_if(windows, [](const std::vector<double>& window) {
        return window.empty();
    });
    return windows;
}

}  // namespace pcbench

#endif  // PCBENCH_PERCENTILE_H_
