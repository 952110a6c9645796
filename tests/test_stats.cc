/** @file Channel metrics (Eq. 1/2) tests. */

#include <gtest/gtest.h>

#include "stats/channel_metrics.hh"

namespace {

namespace st = leaky::stats;

TEST(ChannelMetrics, BinaryEntropyEndpoints)
{
    EXPECT_DOUBLE_EQ(st::binaryEntropy(0.0), 0.0);
    EXPECT_DOUBLE_EQ(st::binaryEntropy(1.0), 0.0);
    EXPECT_DOUBLE_EQ(st::binaryEntropy(0.5), 1.0);
    EXPECT_NEAR(st::binaryEntropy(0.11), 0.4999, 0.01);
}

TEST(ChannelMetrics, CapacityMatchesPaperExamples)
{
    // Paper §6.3: 40 Kbps raw at e=0.05 -> 28.8 Kbps capacity.
    EXPECT_NEAR(st::channelCapacity(40'000.0, 0.05) / 1000.0, 28.5,
                0.5);
    // Error 0.5 carries nothing.
    EXPECT_NEAR(st::channelCapacity(40'000.0, 0.5), 0.0, 1e-9);
    // Perfect channel: full rate.
    EXPECT_DOUBLE_EQ(st::channelCapacity(48'700.0, 0.0), 48'700.0);
}

TEST(ChannelMetrics, ErrorProbabilityCountsMismatches)
{
    const std::vector<bool> sent = {0, 1, 0, 1, 1, 0, 0, 1};
    const std::vector<bool> recv = {0, 1, 1, 1, 1, 0, 1, 1};
    EXPECT_DOUBLE_EQ(st::errorProbability(sent, recv), 0.25);
}

TEST(ChannelMetrics, RawBitRateFromWindow)
{
    // 25 us windows -> 40 Kbps; 20 us -> 50 Kbps.
    EXPECT_NEAR(st::rawBitRate(25'000'000), 40'000.0, 1.0);
    EXPECT_NEAR(st::rawBitRate(20'000'000), 50'000.0, 1.0);
    // Quaternary doubles the rate.
    EXPECT_NEAR(st::rawBitRate(25'000'000, 2.0), 80'000.0, 1.0);
}

TEST(ChannelMetrics, NoiseIntensityMatchesEquation2)
{
    const leaky::sim::Tick min_sleep = 200'000;
    const leaky::sim::Tick max_sleep = 2'000'000;
    EXPECT_NEAR(st::noiseIntensity(max_sleep, min_sleep, max_sleep),
                1.0, 1e-9);
    EXPECT_NEAR(st::noiseIntensity(min_sleep, min_sleep, max_sleep),
                100.0, 1e-9);
    // Round trip through the inverse.
    for (double intensity : {1.0, 10.0, 50.0, 88.0, 100.0}) {
        const auto sleep =
            st::sleepForIntensity(intensity, min_sleep, max_sleep);
        EXPECT_NEAR(st::noiseIntensity(sleep, min_sleep, max_sleep),
                    intensity, 0.1);
    }
}

TEST(ChannelMetrics, WeightedSpeedup)
{
    EXPECT_DOUBLE_EQ(
        st::weightedSpeedup({1.0, 2.0}, {1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(
        st::weightedSpeedup({0.5, 1.0}, {1.0, 2.0}), 1.0);
}

} // namespace
