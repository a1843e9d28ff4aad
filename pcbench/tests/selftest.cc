/**
 * @file
 * Unit tests of the benchmark's own helpers (run by run.py before every
 * workload run, and on their own with `pcbench_selftest`). Exits 0 when
 * every check holds; prints each failure and exits 1 otherwise.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "percentile.h"

namespace {

int failures = 0;

void
expect_near(double got, double want, const char* what)
{
    if (std::fabs(got - want) > 1e-12 * std::max(1.0, std::fabs(want))) {
        std::fprintf(stderr, "FAIL %s: got %.17g want %.17g\n", what, got,
                     want);
        ++failures;
    }
}

template <typename F>
void
expect_throws(F f, const char* what)
{
    try {
        f();
    } catch (const std::invalid_argument&) {
        return;
    }
    std::fprintf(stderr, "FAIL %s: no exception\n", what);
    ++failures;
}

}  // namespace

int
main()
{
    using pcbench::median;
    using pcbench::median_of_percentiles;
    using pcbench::percentile;
    using pcbench::split_at;
    using pcbench::split_windows;

    // Odd and even counts; input order must not matter.
    expect_near(median({5, 1, 4, 2, 3}), 3, "median of 1..5");
    expect_near(median({4, 1, 3, 2}), 2.5, "median of 1..4 interpolates");
    // Closest-rank interpolation: h = (n - 1) p.
    std::vector<double> ten;
    for (int i = 10; i >= 1; --i) {
        ten.push_back(i);
    }
    expect_near(percentile(ten, 0.9), 9.1, "p90 of 1..10");
    expect_near(percentile(ten, 0.0), 1, "p0 is the minimum");
    expect_near(percentile(ten, 1.0), 10, "p100 is the maximum");
    expect_near(percentile({7}, 0.9), 7, "single sample");
    // Sub-millisecond values come back as measured: no bucket grid.
    std::vector<double> fine;
    for (int i = 1; i <= 1001; ++i) {
        fine.push_back(i * 1e-6);
    }
    expect_near(percentile(fine, 0.5), 501e-6, "p50 of 1..1001 us");
    expect_near(percentile(fine, 0.99), 991e-6, "p99 of 1..1001 us");
    // Ties and a heavy tail.
    expect_near(percentile({1, 1, 1, 1, 100}, 0.5), 1, "median with ties");
    expect_near(percentile({1, 1, 1, 1, 100}, 0.9), 60.4, "p90 tail");
    expect_throws([] { percentile({}, 0.5); }, "empty set");
    expect_throws([] { percentile({1, 2}, 1.5); }, "rank above 1");
    expect_throws([] { percentile({1, 2}, std::nan("")); }, "NaN rank");

    // Windows: a burst confined to one of five windows leaves the
    // median of the window p90s alone, while the run-wide p90 lands
    // inside the burst.
    std::vector<double> burst(500, 1.0);
    for (int i = 100; i < 200; ++i) {
        burst[i] = 100.0;
    }
    expect_near(percentile(burst, 0.9), 100, "burst moves the p90");
    expect_near(median_of_percentiles(split_windows(burst, 5), 0.9), 1,
                "windowed p90");
    expect_near(median_of_percentiles(split_windows(ten, 1), 0.9), 9.1,
                "one window is the plain percentile");
    // Uneven split: 7 samples in 3 windows of 2, 2 and 3, in order.
    const auto split = split_windows({1, 2, 10, 20, 5, 6, 7}, 3);
    const bool uneven = split.size() == 3 &&
                        split[0] == std::vector<double>{1, 2} &&
                        split[1] == std::vector<double>{10, 20} &&
                        split[2] == std::vector<double>{5, 6, 7};
    expect_near(uneven ? 1 : 0, 1, "split of 7 samples into 2, 2, 3");
    expect_near(median_of_percentiles(split, 0.5), 6,
                "median of window medians 1.5, 15, 6");
    // Explicit windows of unequal size, as whole load cycles give them.
    expect_near(median_of_percentiles({ten, {3}, {1, 100}}, 0.5), 5.5,
                "median of window medians 5.5, 3, 50.5");
    expect_near(median_of_percentiles({ten, {3}, {1, 100}}, 0.9), 9.1,
                "median of window p90s 9.1, 3, 90.1");
    expect_throws([] { split_windows({1, 2}, 0); }, "0 windows");
    expect_throws([] { split_windows({1, 2}, 3); },
                  "more windows than samples");
    // Windows cut at cycle starts 10..50 (given unsorted): the samples
    // at 5 and 50 fall outside whole cycles, the empty cycle [20, 30)
    // is dropped, and each window keeps input order.
    const auto cycles =
        split_at({{5, 1}, {10, 2}, {12, 3}, {19.5, 4}, {31, 5}, {30, 6},
                  {45, 7}, {50, 8}},
                 {30, 10, 20, 40, 50});
    const bool cut = cycles.size() == 3 &&
                     cycles[0] == std::vector<double>{2, 3, 4} &&
                     cycles[1] == std::vector<double>{5, 6} &&
                     cycles[2] == std::vector<double>{7};
    expect_near(cut ? 1 : 0, 1, "split at cycle starts");
    expect_near(split_at({{1, 1}}, {0}).size(), 0, "one start, no window");
    expect_throws([] { median_of_percentiles({}, 0.5); }, "no windows");
    expect_throws([] { median_of_percentiles({{1}, {}}, 0.5); },
                  "an empty window");

    if (failures != 0) {
        std::fprintf(stderr, "pcbench_selftest: %d failure(s)\n", failures);
        return 1;
    }
    std::printf("pcbench_selftest: ok\n");
    return 0;
}
