/** @file Cache level and hierarchy tests: LRU, dirtiness, clflush. */

#include <gtest/gtest.h>

#include <vector>

#include "sim/rng.hh"
#include "sys/cache.hh"

namespace {

using leaky::sys::CacheHierarchy;
using leaky::sys::CacheHierarchyConfig;
using leaky::sys::CacheLevel;
using leaky::sys::CacheLevelConfig;

CacheLevelConfig
tinyCache(std::uint32_t ways = 2, std::uint64_t lines = 8)
{
    CacheLevelConfig cfg;
    cfg.name = "tiny";
    cfg.line_bytes = 64;
    cfg.ways = ways;
    cfg.size_bytes = lines * 64;
    cfg.latency = 1'000;
    return cfg;
}

TEST(CacheLevel, MissThenHit)
{
    CacheLevel cache(tinyCache());
    EXPECT_FALSE(cache.access(5, false));
    cache.insert(5, false);
    EXPECT_TRUE(cache.access(5, false));
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(CacheLevel, LruEvictsLeastRecentlyUsed)
{
    // 2 ways, 4 sets: lines 0, 4, 8 map to set 0.
    CacheLevel cache(tinyCache());
    cache.insert(0, false);
    cache.insert(4, false);
    EXPECT_TRUE(cache.access(0, false)); // Touch 0: 4 becomes LRU.
    const auto ev = cache.insert(8, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.line_addr, 4u);
    EXPECT_TRUE(cache.contains(0));
    EXPECT_TRUE(cache.contains(8));
    EXPECT_FALSE(cache.contains(4));
}

TEST(CacheLevel, DirtyEvictionReported)
{
    CacheLevel cache(tinyCache());
    cache.insert(0, false);
    cache.access(0, /*is_write=*/true); // Dirty it.
    cache.insert(4, false);
    const auto ev = cache.insert(8, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.line_addr, 0u);
    EXPECT_TRUE(ev.dirty);
}

TEST(CacheLevel, FlushReportsDirtiness)
{
    CacheLevel cache(tinyCache());
    cache.insert(3, true);
    EXPECT_TRUE(cache.flush(3));
    EXPECT_FALSE(cache.contains(3));
    EXPECT_FALSE(cache.flush(3)); // Already gone.
    cache.insert(3, false);
    EXPECT_FALSE(cache.flush(3)); // Clean flush.
}

/** Naive array-of-structs LRU cache: the reference CacheLevel's
 *  structure-of-arrays layout must behave exactly like. */
class ReferenceCache
{
  public:
    ReferenceCache(std::uint32_t sets, std::uint32_t ways)
        : sets_(sets), ways_(ways), lines_(sets * ways)
    {
    }

    bool
    access(std::uint64_t line_addr, bool is_write)
    {
        Line *line = find(line_addr);
        if (!line)
            return false;
        line->lru = ++clock_;
        line->dirty = line->dirty || is_write;
        return true;
    }

    CacheLevel::Eviction
    insert(std::uint64_t line_addr, bool dirty)
    {
        if (Line *line = find(line_addr)) {
            line->dirty = line->dirty || dirty;
            line->lru = ++clock_;
            return {};
        }
        const std::uint64_t set = line_addr % sets_;
        Line *victim = nullptr;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            Line &line = lines_[set * ways_ + w];
            if (!line.valid) {
                victim = &line;
                break;
            }
            if (!victim || line.lru < victim->lru)
                victim = &line;
        }
        CacheLevel::Eviction ev;
        if (victim->valid)
            ev = {true, victim->dirty, victim->tag * sets_ + set};
        *victim = {line_addr / sets_, true, dirty, ++clock_};
        return ev;
    }

    bool
    flush(std::uint64_t line_addr)
    {
        Line *line = find(line_addr);
        if (!line)
            return false;
        const bool dirty = line->dirty;
        *line = {};
        return dirty;
    }

    bool contains(std::uint64_t line_addr) { return find(line_addr); }

  private:
    struct Line {
        std::uint64_t tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lru = 0;
    };

    Line *
    find(std::uint64_t line_addr)
    {
        const std::uint64_t set = line_addr % sets_;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            Line &line = lines_[set * ways_ + w];
            if (line.valid && line.tag == line_addr / sets_)
                return &line;
        }
        return nullptr;
    }

    std::uint64_t sets_;
    std::uint32_t ways_;
    std::vector<Line> lines_;
    std::uint64_t clock_ = 0;
};

TEST(CacheLevel, MatchesArrayOfStructsReference)
{
    // Power-of-two sets (mask and shift) and 6 sets (division), as the
    // paper's L1/LLC and the §10.3 6 MiB LLC index theirs.
    for (const std::uint32_t sets : {8u, 6u}) {
        constexpr std::uint32_t kWays = 4;
        CacheLevel cache(tinyCache(kWays, sets * kWays));
        ReferenceCache reference(sets, kWays);
        leaky::sim::Rng rng(31 + sets);
        std::uint64_t hits = 0, misses = 0;
        for (int op = 0; op < 20'000; ++op) {
            // Three lines per way slot keep every set contended.
            const std::uint64_t line = rng.below(sets * kWays * 3);
            const bool flag = rng.chance(0.3);
            const std::uint64_t kind = rng.below(10);
            SCOPED_TRACE(testing::Message() << "sets " << sets << " op "
                                            << op << " line " << line);
            if (kind < 4) {
                const bool hit = reference.access(line, flag);
                ASSERT_EQ(cache.access(line, flag), hit);
                (hit ? hits : misses) += 1;
            } else if (kind < 7) {
                const auto want = reference.insert(line, flag);
                const auto got = cache.insert(line, flag);
                ASSERT_EQ(got.valid, want.valid);
                ASSERT_EQ(got.dirty, want.dirty);
                ASSERT_EQ(got.line_addr, want.line_addr);
            } else if (kind < 9) {
                ASSERT_EQ(cache.flush(line), reference.flush(line));
            } else {
                ASSERT_EQ(cache.contains(line), reference.contains(line));
            }
        }
        EXPECT_EQ(cache.hits(), hits);
        EXPECT_EQ(cache.misses(), misses);
        EXPECT_GT(hits, 1'000u);
        EXPECT_GT(misses, 1'000u);
    }
}

TEST(CacheHierarchy, MissProbesAllLevelsAndFills)
{
    CacheHierarchy caches(CacheHierarchyConfig::paperDefault());
    auto first = caches.access(0x1000, false);
    EXPECT_FALSE(first.hit);
    EXPECT_EQ(first.latency, caches.missLatency());
    caches.fill(0x1000, false, first);

    const auto second = caches.access(0x1000, false);
    EXPECT_TRUE(second.hit);
    EXPECT_EQ(second.latency, caches.level(0).config().latency);
}

TEST(CacheHierarchy, FlushForcesNextAccessToMiss)
{
    CacheHierarchy caches(CacheHierarchyConfig::paperDefault());
    auto res = caches.access(0x2000, false);
    caches.fill(0x2000, false, res);
    EXPECT_TRUE(caches.access(0x2000, false).hit);
    EXPECT_FALSE(caches.flush(0x2000));
    EXPECT_FALSE(caches.access(0x2000, false).hit);
}

TEST(CacheHierarchy, DirtyLlcEvictionBecomesWriteback)
{
    // Tiny two-level hierarchy so evictions are easy to force.
    CacheHierarchyConfig cfg;
    cfg.levels.push_back(tinyCache(1, 2)); // 2 sets, direct-mapped.
    cfg.levels.push_back(tinyCache(1, 4)); // 4 sets, direct-mapped.
    CacheHierarchy caches(cfg);

    auto res = caches.access(0 * 64, true);
    caches.fill(0 * 64, true, res);
    EXPECT_TRUE(res.writebacks.empty());

    // Line 4 maps to LLC set 0 too: evicts dirty line 0 to memory.
    auto res2 = caches.access(4 * 64, false);
    caches.fill(4 * 64, false, res2);
    ASSERT_EQ(res2.writebacks.size(), 1u);
    EXPECT_EQ(res2.writebacks[0], 0u);
}

TEST(CacheHierarchy, ConfigsMatchPaper)
{
    const auto paper = CacheHierarchyConfig::paperDefault();
    ASSERT_EQ(paper.levels.size(), 2u);
    EXPECT_EQ(paper.levels[0].size_bytes, 32u * 1024);
    EXPECT_EQ(paper.levels[1].size_bytes, 4ull * 1024 * 1024);
    EXPECT_EQ(paper.levels[1].ways, 16u);

    const auto large = CacheHierarchyConfig::largeHierarchy();
    ASSERT_EQ(large.levels.size(), 3u);
    EXPECT_EQ(large.levels[1].size_bytes, 256u * 1024);
    EXPECT_EQ(large.levels[2].size_bytes, 6ull * 1024 * 1024);
}

} // namespace
