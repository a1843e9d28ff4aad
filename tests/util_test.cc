/**
 * @file
 * Unit tests for the util module: bytes, clocks, rng, stats, csv,
 * throttle, crc32, check/fatal.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include "util/affinity.h"
#include "util/bytes.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/crc32.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/throttle.h"

namespace pccheck {
namespace {

using namespace literals;

TEST(BytesTest, LiteralsMatchConstants)
{
    EXPECT_EQ(1_kib, 1024u);
    EXPECT_EQ(1_mib, 1024u * 1024u);
    EXPECT_EQ(1_gib, 1024u * 1024u * 1024u);
    EXPECT_EQ(1_gb, 1000000000u);
}

TEST(BytesTest, AlignUpDown)
{
    EXPECT_EQ(align_up(0, 64), 0u);
    EXPECT_EQ(align_up(1, 64), 64u);
    EXPECT_EQ(align_up(64, 64), 64u);
    EXPECT_EQ(align_up(65, 64), 128u);
    EXPECT_EQ(align_down(63, 64), 0u);
    EXPECT_EQ(align_down(64, 64), 64u);
    EXPECT_EQ(align_down(127, 64), 64u);
}

TEST(BytesTest, FormatBytesPicksUnits)
{
    EXPECT_EQ(format_bytes(512), "512 B");
    EXPECT_EQ(format_bytes(1536), "1.50 KiB");
    EXPECT_EQ(format_bytes(3 * kGiB), "3.00 GiB");
}

TEST(CheckTest, FatalThrows)
{
    EXPECT_THROW(fatal("boom"), FatalError);
    try {
        fatal("specific message");
    } catch (const FatalError& e) {
        EXPECT_STREQ(e.what(), "specific message");
    }
}

TEST(ClockTest, MonotonicAdvances)
{
    const auto& clock = MonotonicClock::instance();
    const Seconds a = clock.now();
    clock.sleep_for(0.002);
    const Seconds b = clock.now();
    EXPECT_GE(b - a, 0.0015);
}

TEST(ClockTest, SleepForNegativeIsNoop)
{
    const auto& clock = MonotonicClock::instance();
    const Seconds a = clock.now();
    clock.sleep_for(-1.0);
    EXPECT_LT(clock.now() - a, 0.05);
}

TEST(ClockTest, ScaledClockSpeedsUpTime)
{
    const auto& base = MonotonicClock::instance();
    ScaledClock scaled(base, 100.0);
    const Seconds a = scaled.now();
    base.sleep_for(0.002);
    const Seconds b = scaled.now();
    EXPECT_GE(b - a, 0.15);  // 2 ms real ≈ 200 ms scaled
}

TEST(ClockTest, ScaledClockShortensSleeps)
{
    const auto& base = MonotonicClock::instance();
    ScaledClock scaled(base, 1000.0);
    const Seconds a = base.now();
    scaled.sleep_for(1.0);  // one scaled second = 1 ms real
    EXPECT_LT(base.now() - a, 0.25);
}

TEST(StopwatchTest, MeasuresElapsed)
{
    Stopwatch watch;
    MonotonicClock::instance().sleep_for(0.002);
    EXPECT_GE(watch.elapsed(), 0.0015);
    watch.reset();
    EXPECT_LT(watch.elapsed(), 0.002);
}

TEST(RngTest, Deterministic)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next_u64(), b.next_u64());
    }
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        equal += a.next_u64() == b.next_u64();
    }
    EXPECT_LT(equal, 2);
}

TEST(RngTest, NextBelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.next_below(17), 17u);
    }
}

TEST(RngTest, DoubleInUnitInterval)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.next_double();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(RngTest, ExponentialMeanConverges)
{
    Rng rng(11);
    RunningStat stat;
    for (int i = 0; i < 20000; ++i) {
        stat.add(rng.exponential(3.0));
    }
    EXPECT_NEAR(stat.mean(), 3.0, 0.15);
}

TEST(RngTest, NormalMeanAndStddevConverge)
{
    Rng rng(13);
    RunningStat stat;
    for (int i = 0; i < 20000; ++i) {
        stat.add(rng.normal(5.0, 2.0));
    }
    EXPECT_NEAR(stat.mean(), 5.0, 0.1);
    EXPECT_NEAR(stat.stddev(), 2.0, 0.1);
}

TEST(RngTest, ChanceRespectsProbability)
{
    Rng rng(17);
    int hits = 0;
    for (int i = 0; i < 10000; ++i) {
        hits += rng.chance(0.25);
    }
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(RunningStatTest, BasicMoments)
{
    RunningStat stat;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
        stat.add(x);
    }
    EXPECT_EQ(stat.count(), 8u);
    EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
    EXPECT_NEAR(stat.stddev(), 2.138, 0.01);
    EXPECT_DOUBLE_EQ(stat.min(), 2.0);
    EXPECT_DOUBLE_EQ(stat.max(), 9.0);
    EXPECT_DOUBLE_EQ(stat.sum(), 40.0);
}

TEST(RunningStatTest, EmptyIsZero)
{
    RunningStat stat;
    EXPECT_EQ(stat.count(), 0u);
    EXPECT_EQ(stat.mean(), 0.0);
    EXPECT_EQ(stat.variance(), 0.0);
}

TEST(RunningStatTest, MergeMatchesCombined)
{
    Rng rng(23);
    RunningStat all;
    RunningStat left;
    RunningStat right;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.normal(0, 1);
        all.add(x);
        (i % 2 ? left : right).add(x);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), all.count());
    EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(left.min(), all.min());
    EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(HistogramTest, QuantilesOfUniformData)
{
    Histogram hist(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i) {
        hist.add(i + 0.5);
    }
    EXPECT_NEAR(hist.quantile(0.5), 50.0, 2.0);
    EXPECT_NEAR(hist.quantile(0.9), 90.0, 2.0);
}

TEST(HistogramTest, OverflowUnderflowCounted)
{
    Histogram hist(0.0, 10.0, 10);
    hist.add(-5.0);
    hist.add(50.0);
    hist.add(5.0);
    EXPECT_EQ(hist.count(), 3u);
}

TEST(CsvTest, EscapesSpecialCharacters)
{
    EXPECT_EQ(csv_escape("plain"), "plain");
    EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
    EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvTest, WritesHeaderAndRows)
{
    const std::string path = "/tmp/pccheck_csv_test.csv";
    {
        CsvWriter writer(path, {"a", "b"});
        writer.row({"1", "2"});
        writer.row_numeric("x", {3.5});
    }
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "a,b");
    std::getline(in, line);
    EXPECT_EQ(line, "1,2");
    std::getline(in, line);
    EXPECT_EQ(line, "x,3.5");
    std::remove(path.c_str());
}

TEST(ThrottleTest, UnthrottledIsImmediate)
{
    BandwidthThrottle throttle(0);
    Stopwatch watch;
    throttle.acquire(100 * kMiB);
    EXPECT_LT(watch.elapsed(), 0.01);
}

TEST(ThrottleTest, PacesToConfiguredBandwidth)
{
    BandwidthThrottle throttle(10e6);  // 10 MB/s
    Stopwatch watch;
    throttle.acquire(100'000);  // expect ~10 ms
    const Seconds elapsed = watch.elapsed();
    EXPECT_GE(elapsed, 0.008);
    EXPECT_LT(elapsed, 0.15);
}

TEST(ThrottleTest, ConcurrentCallersShareChannel)
{
    BandwidthThrottle throttle(10e6);
    Stopwatch watch;
    std::vector<std::thread> threads;
    for (int i = 0; i < 4; ++i) {
        threads.emplace_back([&throttle] { throttle.acquire(50'000); });
    }
    for (auto& thread : threads) {
        thread.join();
    }
    // 4 × 50 KB at 10 MB/s shared = at least ~20 ms total.
    EXPECT_GE(watch.elapsed(), 0.016);
}

std::vector<std::uint8_t>
random_bytes(std::size_t len, std::uint64_t seed)
{
    std::vector<std::uint8_t> data(len);
    Rng rng(seed);
    for (auto& byte : data) {
        byte = static_cast<std::uint8_t>(rng.next_u64());
    }
    return data;
}

TEST(Crc32Test, KnownVector)
{
    // CRC-32C("123456789") = 0xE3069283, on both kernels.
    const char* data = "123456789";
    EXPECT_EQ(crc32c(data, 9), 0xE3069283u);
    EXPECT_EQ(crc32c_portable(data, 9), 0xE3069283u);
}

TEST(Crc32Test, GoldenValues)
{
    // On-media values, computed with the byte-table implementation that
    // wrote every existing image. A change that moves them breaks
    // recovery of old checkpoints.
    struct Golden {
        std::size_t len;
        std::uint64_t fill_seed;
        std::uint32_t crc_seed;
        std::uint32_t crc;
    };
    const Golden golden[] = {
        {0, 1, 0xDEADBEEFu, 0xDEADBEEFu},
        {9, 2, 0x00000000u, 0xA2537653u},
        {4095, 3, 0x00000000u, 0x6CAC3A7Cu},
        {24577, 4, 0x5EED5EEDu, 0xDFAB0EF1u},
        {1048583, 5, 0x00000000u, 0x4DE30B17u},
        {4194304, 6, 0x00000000u, 0x688D7C9Fu},
    };
    for (const Golden& g : golden) {
        SCOPED_TRACE(g.len);
        const auto data = random_bytes(g.len, g.fill_seed);
        EXPECT_EQ(crc32c(data.data(), g.len, g.crc_seed), g.crc);
        EXPECT_EQ(crc32c_portable(data.data(), g.len, g.crc_seed), g.crc);
    }
}

TEST(Crc32Test, MatchesPortableAcrossLengthsAlignmentsSeeds)
{
    constexpr std::size_t kBlock = kCrc32cStreamBlock;
    constexpr std::size_t kMax = 256 * 1024;
    const auto data = random_bytes(kMax + 8, 41);
    Rng rng(43);
    std::vector<std::size_t> lengths;
    for (std::size_t len = 0; len <= 1024; ++len) {
        lengths.push_back(len);
    }
    // Both sides of every interleave edge the buffer holds.
    for (std::size_t edge = 3 * kBlock; edge <= kMax; edge += 3 * kBlock) {
        lengths.insert(lengths.end(), {edge - 1, edge, edge + 1});
    }
    for (int i = 0; i < 64; ++i) {
        lengths.push_back(rng.next_below(kMax + 1));
    }
    for (const std::size_t len : lengths) {
        for (std::size_t align = 0; align < 8; ++align) {
            const auto seed = static_cast<std::uint32_t>(rng.next_u64());
            const std::uint8_t* p = data.data() + align;
            ASSERT_EQ(crc32c(p, len, seed), crc32c_portable(p, len, seed))
                << "len " << len << " align " << align << " seed " << seed;
        }
    }
}

TEST(Crc32Test, IncrementalMatchesOneShot)
{
    // Chaining through `seed`, as the orchestrator does chunk by chunk,
    // with split points on both sides of the stream-block edges.
    constexpr std::size_t kBlock = kCrc32cStreamBlock;
    const auto data = random_bytes(10 * kBlock + 10000, 31);
    const std::uint32_t whole = crc32c(data.data(), data.size());
    ASSERT_EQ(whole, crc32c_portable(data.data(), data.size()));
    for (const std::size_t split :
         {std::size_t{1234}, kBlock - 1, kBlock, kBlock + 1, 3 * kBlock - 1,
          3 * kBlock, 3 * kBlock + 1, 6 * kBlock - 8, 6 * kBlock + 8}) {
        SCOPED_TRACE(split);
        std::uint32_t inc = crc32c(data.data(), split);
        inc = crc32c(data.data() + split, data.size() - split, inc);
        EXPECT_EQ(whole, inc);
    }
}

TEST(Crc32Test, DetectsBitFlip)
{
    std::vector<std::uint8_t> data(4096, 0xAB);
    const std::uint32_t before = crc32c(data.data(), data.size());
    data[2048] ^= 0x01;
    EXPECT_NE(before, crc32c(data.data(), data.size()));
}

TEST(AffinityTest, ReportsAtLeastOneCpu)
{
    EXPECT_GE(available_cpus(), 1);
}

TEST(AffinityTest, PinAndUnpinSucceed)
{
    // Pinning to CPU 0 must always be possible; index wraps modulo
    // the available CPUs, so large indices also succeed.
    EXPECT_TRUE(pin_current_thread(0));
    EXPECT_TRUE(pin_current_thread(1000));
    EXPECT_TRUE(unpin_current_thread());
}

TEST(AffinityTest, NegativeCpuRejected)
{
    EXPECT_FALSE(pin_current_thread(-1));
    unpin_current_thread();
}

}  // namespace
}  // namespace pccheck
