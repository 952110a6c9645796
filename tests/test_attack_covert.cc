/** @file Covert-channel integration tests (PRAC and RFM channels). */

#include <gtest/gtest.h>

#include "attack/covert.hh"
#include "attack/dram_addr.hh"
#include "attack/message.hh"
#include "attack/noise.hh"
#include "core/experiments.hh"

namespace {

using namespace leaky;
using attack::ChannelKind;

std::vector<std::uint8_t>
binarySymbols(const std::vector<bool> &bits)
{
    std::vector<std::uint8_t> symbols;
    for (bool b : bits)
        symbols.push_back(b ? 1 : 0);
    return symbols;
}

TEST(CovertChannel, PracTransmitsMicroErrorFree)
{
    const auto demo = core::runMessageDemo(ChannelKind::kPrac, "MICRO");
    EXPECT_EQ(demo.decoded_text, "MICRO");
    EXPECT_EQ(demo.sent_bits, demo.received_bits);
    // Each logic-1 window saw exactly one back-off (paper Fig. 3).
    for (std::size_t i = 0; i < demo.sent_bits.size(); ++i) {
        if (demo.sent_bits[i])
            EXPECT_EQ(demo.detections[i], 1u) << "window " << i;
        else
            EXPECT_EQ(demo.detections[i], 0u) << "window " << i;
    }
}

TEST(CovertChannel, RfmTransmitsMicroErrorFree)
{
    const auto demo = core::runMessageDemo(ChannelKind::kRfm, "MICRO");
    EXPECT_EQ(demo.decoded_text, "MICRO");
    // Logic-1 windows see multiple RFMs, logic-0 windows fewer than
    // Trecv (paper Fig. 6).
    for (std::size_t i = 0; i < demo.sent_bits.size(); ++i) {
        if (demo.sent_bits[i])
            EXPECT_GE(demo.detections[i], 3u) << "window " << i;
        else
            EXPECT_LT(demo.detections[i], 3u) << "window " << i;
    }
}

TEST(CovertChannel, RawBitRatesMatchWindowSizes)
{
    sys::System prac_sys(
        core::attackSystem(defense::DefenseKind::kPrac));
    const auto prac_cfg =
        attack::makeChannelConfig(prac_sys, ChannelKind::kPrac);
    const auto bits = attack::patternBits(
        attack::MessagePattern::kCheckered0, 16);
    const auto result = attack::runCovertChannel(
        prac_sys, {prac_cfg}, binarySymbols(bits))[0];
    EXPECT_NEAR(result.raw_bit_rate, 40'000.0, 100.0); // 25 us windows.
}

TEST(CovertChannel, SenderIdleMeansNoBackoffs)
{
    sys::System system(
        core::attackSystem(defense::DefenseKind::kPrac));
    const auto cfg =
        attack::makeChannelConfig(system, ChannelKind::kPrac);
    const auto result = attack::runCovertChannel(
        system, {cfg},
        binarySymbols(attack::patternBits(
            attack::MessagePattern::kAllZeros, 24)))[0];
    EXPECT_EQ(result.symbol_error, 0.0);
    EXPECT_EQ(result.backoffs, 0u); // Ground truth: none triggered.
}

TEST(CovertChannel, AllOnesTriggersOneBackoffPerWindow)
{
    sys::System system(
        core::attackSystem(defense::DefenseKind::kPrac));
    const auto cfg =
        attack::makeChannelConfig(system, ChannelKind::kPrac);
    const auto result = attack::runCovertChannel(
        system, {cfg},
        binarySymbols(attack::patternBits(
            attack::MessagePattern::kAllOnes, 24)))[0];
    EXPECT_EQ(result.symbol_error, 0.0);
    EXPECT_NEAR(static_cast<double>(result.backoffs), 24.0, 2.0);
}

TEST(CovertChannel, CrossBankReceiverStillDecodesPrac)
{
    // PRAC back-offs block the whole channel (§5.2): the receiver works
    // from any bank.
    sys::System system(
        core::attackSystem(defense::DefenseKind::kPrac));
    auto cfg = attack::makeChannelConfig(system, ChannelKind::kPrac);
    // The sender self-conflicts between two rows of its bank; the
    // receiver listens from a different rank/bank-group/bank. With the
    // sender alone driving activations, charging the counters takes
    // ~25 us, so the transmission window doubles.
    cfg.sender_addr2 =
        attack::rowAddress(system.mapper(), 0, 0, 0, 0, 1064);
    cfg.receiver_addr =
        attack::rowAddress(system.mapper(), 0, 1, 6, 3, 2000);
    cfg.window = 50 * sim::kUs;
    const auto result = attack::runCovertChannel(
        system, {cfg},
        binarySymbols(attack::patternBits(
            attack::MessagePattern::kCheckered1, 32)))[0];
    EXPECT_LE(result.symbol_error, 0.1);
}

TEST(CovertChannel, NoiseDegradesButDoesNotKillChannel)
{
    core::ChannelRunSpec clean;
    clean.kind = ChannelKind::kPrac;
    clean.message_bytes = 8;
    clean.pattern = attack::MessagePattern::kCheckered0;
    const auto quiet = core::runChannel(clean);

    core::ChannelRunSpec noisy = clean;
    noisy.noise_sleep = 400'000; // High intensity.
    const auto loud = core::runChannel(noisy);

    EXPECT_LE(quiet.symbol_error, loud.symbol_error + 0.05);
    EXPECT_GT(loud.capacity, 0.0);
}

/** Property sweep: multibit round trips for every level count. */
class MultibitChannel : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(MultibitChannel, RandomPayloadMostlyDecodes)
{
    core::ChannelRunSpec spec;
    spec.kind = ChannelKind::kPrac;
    spec.levels = GetParam();
    spec.message_bytes = 8;
    spec.pattern = attack::MessagePattern::kRandom;
    const auto result = core::runChannel(spec);
    // Binary/ternary decode cleanly; quaternary tolerates some symbol
    // confusion (paper: 0.29 error).
    const double budget = GetParam() == 4 ? 0.35 : 0.05;
    EXPECT_LE(result.symbol_error, budget);
}

INSTANTIATE_TEST_SUITE_P(Levels, MultibitChannel,
                         ::testing::Values(2, 3, 4));

TEST(NoiseAgent, GeneratesBankConflicts)
{
    sys::System system(
        core::attackSystem(defense::DefenseKind::kPrac));
    attack::NoiseConfig cfg;
    cfg.addrs = attack::rowsInBank(system.mapper(), 0, 0, 0, 0, 3000, 4,
                                   128);
    cfg.sleep = 500'000;
    attack::NoiseAgent agent(system, cfg);
    agent.start();
    system.run(100 * sim::kUs);
    // ~100us / (0.5us + overhead) accesses.
    EXPECT_GT(agent.accessCount(), 150u);
    EXPECT_LT(agent.accessCount(), 220u);
    agent.stop();
    const auto before = agent.accessCount();
    system.run(20 * sim::kUs);
    EXPECT_LE(agent.accessCount(), before + 1);
}

} // namespace
