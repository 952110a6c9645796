/** @file FR-RFM tests, including the §11.1 security property: RFM
 *  issue times are a fixed grid, independent of the access pattern. */

#include <gtest/gtest.h>

#include "attack/dram_addr.hh"
#include "defense/fr_rfm.hh"
#include "defense/policy.hh"
#include "sys/system.hh"

namespace {

using leaky::defense::DefenseKind;
using leaky::defense::FrRfmConfig;
using leaky::defense::FrRfmDefense;
using leaky::sim::Tick;

TEST(FrRfm, RequestsPreciseRfmOnGrid)
{
    FrRfmConfig cfg;
    cfg.period = 1'000'000;
    cfg.drain_lead = 80'000;
    FrRfmDefense defense(cfg);

    EXPECT_FALSE(defense.pendingRfm(0).has_value());
    EXPECT_EQ(defense.nextEventTick(0), 920'000u);

    const auto req = defense.pendingRfm(920'000);
    ASSERT_TRUE(req.has_value());
    EXPECT_TRUE(req->precise);
    EXPECT_TRUE(req->all_ranks);
    EXPECT_EQ(req->scheduled_at, 1'000'000u);

    // In flight: no second request until issued.
    EXPECT_FALSE(defense.pendingRfm(990'000).has_value());
    defense.onRfmIssued(*req, 1'000'000, 1'295'000);
    EXPECT_EQ(defense.nextEventTick(1'300'000), 2'000'000u - 80'000u);
}

TEST(FrRfm, OverrunSkipsSlotsWithoutDrifting)
{
    FrRfmConfig cfg;
    cfg.period = 100'000; // Shorter than the RFM window.
    cfg.drain_lead = 10'000;
    FrRfmDefense defense(cfg);
    auto req = defense.pendingRfm(95'000);
    ASSERT_TRUE(req.has_value());
    // Window ends way past several grid points.
    defense.onRfmIssued(*req, 100'000, 450'000);
    EXPECT_GT(defense.skippedSlots(), 0u);
    const auto next = defense.pendingRfm(495'000);
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(next->scheduled_at % 100'000, 0u) << "grid drifted";
}

TEST(FrRfm, ActivationsAreIgnored)
{
    FrRfmConfig cfg;
    cfg.period = 1'000'000;
    FrRfmDefense defense(cfg);
    leaky::ctrl::Address a;
    for (int i = 0; i < 1000; ++i)
        defense.onActivate(a, static_cast<Tick>(i));
    EXPECT_FALSE(defense.pendingRfm(0).has_value());
}

TEST(FrRfmPolicy, PeriodScalesWithNrhAndClamps)
{
    leaky::dram::Timing t;
    const Tick lead = 80'000;
    // High thresholds: TRFM x tRC.
    EXPECT_EQ(leaky::defense::frRfmPeriodFor(1024, t, lead),
              64 * t.tRC);
    EXPECT_EQ(leaky::defense::frRfmPeriodFor(512, t, lead), 32 * t.tRC);
    // Ultra-low thresholds clamp at the physical floor.
    const Tick floor = t.tRFM + lead + 20'000;
    EXPECT_EQ(leaky::defense::frRfmPeriodFor(64, t, lead), floor);
}

/**
 * §11.1 security property, end to end: the RFM issue times on a system
 * running a hammering attacker equal those on an idle system, i.e.,
 * RespR[i] is independent of ReqS[i].
 */
TEST(FrRfmSecurity, RfmTimesIndependentOfTraffic)
{
    const auto run = [](bool with_traffic) {
        using namespace leaky;
        sys::SystemConfig cfg =
            sys::SystemConfig::paper(DefenseKind::kFrRfm, 1024);
        sys::System system(cfg);
        std::vector<Tick> rfm_times;
        system.controller(0).setListener(
            [&rfm_times](ctrl::PreventiveEvent ev, Tick start, Tick,
                         const dram::Address &) {
                if (ev == ctrl::PreventiveEvent::kRfm)
                    rfm_times.push_back(start);
            });

        std::uint64_t served = 0;
        std::function<void()> hammer = [&] {
            const auto a = attack::rowAddress(
                system.mapper(), 0, 0, 0, 0,
                served % 2 ? 100u : 200u);
            system.issueRead(a, [&] {
                served += 1;
                system.schedule(15'000, hammer);
            });
        };
        if (with_traffic)
            hammer();
        system.run(20 * sim::kMs);

        EXPECT_NE(dynamic_cast<const defense::FrRfmDefense *>(
                      system.defenseBundle(0).controller.get()),
                  nullptr);
        return rfm_times;
    };

    const auto idle_times = run(false);
    const auto busy_times = run(true);
    ASSERT_GT(idle_times.size(), 10u);
    ASSERT_EQ(idle_times.size(), busy_times.size());
    for (std::size_t i = 0; i < idle_times.size(); ++i) {
        EXPECT_EQ(idle_times[i], busy_times[i])
            << "RFM " << i << " leaked traffic timing";
    }
}

} // namespace
