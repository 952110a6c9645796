/** @file Fingerprinting (Listing 2) and counter-leak (§9.1) tests. */

#include <gtest/gtest.h>

#include "attack/counter_leak.hh"
#include "attack/dram_addr.hh"
#include "attack/fingerprint.hh"
#include "core/experiments.hh"

namespace {

using namespace leaky;

TEST(FingerprintProbe, DoesNotTriggerBackoffsOnItsOwn)
{
    // Listing 2's whole point: T < NBO accesses per row visit keep the
    // probe's own counters below the threshold.
    sys::System system(
        core::attackSystem(defense::DefenseKind::kPrac));
    attack::FingerprintConfig cfg;
    cfg.rows = attack::rowsInBank(system.mapper(), 0, 1, 7, 3, 500, 8,
                                  64);
    cfg.t_accesses = 100; // < NBO=128.
    cfg.duration = 500 * sim::kUs;
    cfg.classifier =
        attack::LatencyClassifier::forTiming(dram::Timing{});
    attack::FingerprintProbe probe(system, cfg);
    bool done = false;
    probe.start([&done] { done = true; });
    while (!done)
        system.run(sim::kMs);

    EXPECT_EQ(system.controller(0).stats().backoffs, 0u);
    EXPECT_TRUE(probe.backoffTimes().empty());
    EXPECT_GT(probe.accessCount(), 1000u);
}

TEST(FingerprintProbe, ObservesVictimBackoffsChannelWide)
{
    // A hammering "victim" in a different bank: the probe sees its
    // back-offs because PRAC blocks the whole channel.
    sys::System system(
        core::attackSystem(defense::DefenseKind::kPrac));

    std::uint64_t served = 0;
    std::function<void()> victim = [&] {
        const auto a = attack::rowAddress(system.mapper(), 0, 0, 0, 0,
                                          served % 2 ? 100u : 200u);
        system.issueRead(a, [&] {
            served += 1;
            system.schedule(15'000, victim);
        });
    };
    victim();

    attack::FingerprintConfig cfg;
    cfg.rows = attack::rowsInBank(system.mapper(), 0, 1, 7, 3, 500, 8,
                                  64);
    cfg.t_accesses = 100;
    cfg.duration = 500 * sim::kUs;
    cfg.classifier =
        attack::LatencyClassifier::forTiming(dram::Timing{});
    attack::FingerprintProbe probe(system, cfg);
    bool done = false;
    probe.start([&done] { done = true; });
    while (!done)
        system.run(sim::kMs);

    EXPECT_GE(system.controller(0).stats().backoffs, 10u);
    // The probe catches most of them.
    EXPECT_GE(probe.backoffTimes().size(),
              system.controller(0).stats().backoffs / 2);
}

TEST(Features, FixedDimensionality)
{
    const auto a = attack::extractFeatures({}, sim::kMs, 32);
    const auto b = attack::extractFeatures(
        {100, 5000, 90'000, 1'000'000}, sim::kMs, 32);
    EXPECT_EQ(a.values.size(), 32u + 7u);
    EXPECT_EQ(a.values.size(), b.values.size());
}

TEST(Features, WindowCountsLandInRightBuckets)
{
    const sim::Tick duration = 1000;
    // 4 windows of 250 ticks each.
    const auto f = attack::extractFeatures({10, 260, 270, 900},
                                           duration, 4);
    EXPECT_DOUBLE_EQ(f.values[0], 1.0);
    EXPECT_DOUBLE_EQ(f.values[1], 2.0);
    EXPECT_DOUBLE_EQ(f.values[2], 0.0);
    EXPECT_DOUBLE_EQ(f.values[3], 1.0);
    // Total count is the last feature.
    EXPECT_DOUBLE_EQ(f.values.back(), 4.0);
}

TEST(Fingerprints, SameSiteCloserThanDifferentSites)
{
    core::FingerprintSpec spec;
    spec.duration = 2 * sim::kMs;
    const auto a0 = core::collectOneFingerprint(spec, 2, 0);
    const auto a1 = core::collectOneFingerprint(spec, 2, 1);
    const auto b0 = core::collectOneFingerprint(spec, 17, 0);

    EXPECT_GT(a0.backoff_times.size(), 3u)
        << "site traces should trigger back-offs";

    const auto dist = [](const core::FingerprintSample &x,
                         const core::FingerprintSample &y) {
        const auto fx =
            attack::extractFeatures(x.backoff_times, x.duration, 16);
        const auto fy =
            attack::extractFeatures(y.backoff_times, y.duration, 16);
        double d = 0.0;
        for (std::size_t i = 0; i < 16; ++i) { // Window counts only.
            const double diff = fx.values[i] - fy.values[i];
            d += diff * diff;
        }
        return d;
    };
    EXPECT_LT(dist(a0, a1), dist(a0, b0));
}

TEST(CounterLeak, RecoversSecretWithinTwoCounts)
{
    for (std::uint32_t secret : {5u, 30u, 64u, 100u}) {
        sys::SystemConfig cfg =
            core::attackSystem(defense::DefenseKind::kPrac);
        sys::System system(cfg);
        const auto shared =
            attack::rowAddress(system.mapper(), 0, 0, 0, 0, 1000);
        attack::CounterLeakConfig leak_cfg;
        leak_cfg.shared_addr = shared;
        leak_cfg.conflict_addr =
            attack::rowAddress(system.mapper(), 0, 0, 0, 0, 3000);
        leak_cfg.nbo = 128;
        leak_cfg.classifier =
            attack::LatencyClassifier::forTiming(dram::Timing{});

        attack::CounterLeakVictim victim(
            system, shared,
            attack::rowAddress(system.mapper(), 0, 0, 0, 0, 2000));
        attack::CounterLeakAttacker attacker(system, leak_cfg);

        bool done = false;
        victim.prime(secret, [&attacker, &done] {
            attacker.start([&done] { done = true; });
        });
        while (!done)
            system.run(sim::kMs);
        const attack::CounterLeakResult &result = attacker.result();

        EXPECT_NEAR(static_cast<double>(result.leaked_count),
                    static_cast<double>(secret), 2.0)
            << "secret=" << secret;
        EXPECT_GT(result.throughput, 100'000.0); // >100 Kbps.
        EXPECT_DOUBLE_EQ(result.bits, 7.0);
    }
}

} // namespace
