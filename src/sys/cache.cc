#include "sys/cache.hh"

#include "sim/logging.hh"

namespace leaky::sys {

CacheLevel::CacheLevel(const CacheLevelConfig &cfg) : cfg_(cfg)
{
    LEAKY_ASSERT(cfg.size_bytes % (cfg.ways * cfg.line_bytes) == 0,
                 "cache size not divisible into sets");
    sets_ = static_cast<std::uint32_t>(
        cfg.size_bytes / (static_cast<std::uint64_t>(cfg.ways) *
                          cfg.line_bytes));
    if ((sets_ & (sets_ - 1)) == 0)
        set_shift_ = __builtin_ctz(sets_);
    const std::size_t ways_total = static_cast<std::size_t>(sets_) * cfg.ways;
    tags_.assign(ways_total, 0);
    lru_.assign(ways_total, 0);
    dirty_.assign(ways_total, 0);
}

std::size_t
CacheLevel::setOf(std::uint64_t line_addr) const
{
    return static_cast<std::size_t>(
        set_shift_ >= 0 ? line_addr & (sets_ - 1) : line_addr % sets_);
}

std::uint64_t
CacheLevel::keyOf(std::uint64_t line_addr) const
{
    const std::uint64_t tag =
        set_shift_ >= 0 ? line_addr >> set_shift_ : line_addr / sets_;
    LEAKY_ASSERT(tag < kValid, "tag of line %llu reaches the valid bit",
                 static_cast<unsigned long long>(line_addr));
    return tag | kValid;
}

std::uint32_t
CacheLevel::find(std::size_t base, std::uint64_t key) const
{
    const std::uint64_t *set = &tags_[base];
    for (std::uint32_t w = 0; w < cfg_.ways; ++w)
        if (set[w] == key)
            return w;
    return cfg_.ways;
}

bool
CacheLevel::access(std::uint64_t line_addr, bool is_write)
{
    const auto base = setOf(line_addr) * cfg_.ways;
    const auto w = find(base, keyOf(line_addr));
    if (w == cfg_.ways) {
        misses_ += 1;
        return false;
    }
    lru_[base + w] = ++lru_clock_;
    dirty_[base + w] |= is_write;
    hits_ += 1;
    return true;
}

CacheLevel::Eviction
CacheLevel::insert(std::uint64_t line_addr, bool dirty)
{
    const auto set = setOf(line_addr);
    const auto base = set * cfg_.ways;
    const auto key = keyOf(line_addr);
    // If the line is already present (e.g., refilled by another path),
    // just refresh it.
    if (const auto w = find(base, key); w != cfg_.ways) {
        dirty_[base + w] |= dirty;
        lru_[base + w] = ++lru_clock_;
        return {};
    }
    // Victim: first invalid way, otherwise the least recently used
    // (the earliest way on a tie).
    std::uint32_t victim = cfg_.ways;
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
        if (!(tags_[base + w] & kValid)) {
            victim = w;
            break;
        }
        if (victim == cfg_.ways || lru_[base + w] < lru_[base + victim])
            victim = w;
    }
    LEAKY_ASSERT(victim != cfg_.ways, "no victim way found");

    const std::size_t i = base + victim;
    Eviction ev;
    if (tags_[i] & kValid) {
        ev.valid = true;
        ev.dirty = dirty_[i] != 0;
        ev.line_addr = (tags_[i] & ~kValid) * sets_ + set;
    }
    tags_[i] = key;
    dirty_[i] = dirty;
    lru_[i] = ++lru_clock_;
    return ev;
}

bool
CacheLevel::flush(std::uint64_t line_addr)
{
    const auto base = setOf(line_addr) * cfg_.ways;
    const auto w = find(base, keyOf(line_addr));
    if (w == cfg_.ways)
        return false;
    const bool dirty = dirty_[base + w] != 0;
    tags_[base + w] = 0;
    dirty_[base + w] = 0;
    return dirty;
}

bool
CacheLevel::contains(std::uint64_t line_addr) const
{
    return find(setOf(line_addr) * cfg_.ways, keyOf(line_addr)) != cfg_.ways;
}

CacheHierarchyConfig
CacheHierarchyConfig::paperDefault()
{
    CacheHierarchyConfig cfg;
    cfg.levels.push_back({"L1", 32 * 1024, 8, 64, 1'400});
    cfg.levels.push_back({"LLC", 4ULL * 1024 * 1024, 16, 64, 11'000});
    return cfg;
}

CacheHierarchyConfig
CacheHierarchyConfig::largeHierarchy()
{
    CacheHierarchyConfig cfg;
    cfg.levels.push_back({"L1", 32 * 1024, 8, 64, 1'400});
    cfg.levels.push_back({"L2", 256 * 1024, 8, 64, 4'000});
    cfg.levels.push_back({"LLC", 6ULL * 1024 * 1024, 16, 64, 13'000});
    return cfg;
}

CacheHierarchy::CacheHierarchy(const CacheHierarchyConfig &cfg)
{
    LEAKY_ASSERT(!cfg.levels.empty(), "hierarchy needs >= 1 level");
    for (const auto &level : cfg.levels)
        levels_.emplace_back(level);
    line_bytes_ = cfg.levels.front().line_bytes;
}

std::uint64_t
CacheHierarchy::lineOf(std::uint64_t addr) const
{
    return addr / line_bytes_;
}

CacheHierarchy::Result
CacheHierarchy::access(std::uint64_t addr, bool is_write)
{
    Result result;
    const auto line = lineOf(addr);
    for (std::size_t i = 0; i < levels_.size(); ++i) {
        result.latency += levels_[i].config().latency;
        if (levels_[i].access(line, is_write)) {
            result.hit = true;
            // Refill upper levels (inclusive hierarchy).
            for (std::size_t j = 0; j < i; ++j) {
                const auto ev = levels_[j].insert(line, is_write);
                if (ev.valid && ev.dirty && j + 1 < levels_.size())
                    levels_[j + 1].insert(ev.line_addr, true);
            }
            return result;
        }
    }
    return result;
}

void
CacheHierarchy::fill(std::uint64_t addr, bool dirty, Result &result)
{
    const auto line = lineOf(addr);
    for (std::size_t i = 0; i < levels_.size(); ++i) {
        const auto ev = levels_[i].insert(line, dirty);
        if (!ev.valid || !ev.dirty)
            continue;
        if (i + 1 < levels_.size()) {
            levels_[i + 1].insert(ev.line_addr, true);
        } else {
            result.writebacks.push_back(ev.line_addr * line_bytes_);
        }
    }
}

bool
CacheHierarchy::flush(std::uint64_t addr)
{
    const auto line = lineOf(addr);
    bool dirty = false;
    for (auto &level : levels_)
        dirty = level.flush(line) || dirty;
    return dirty;
}

Tick
CacheHierarchy::missLatency() const
{
    Tick total = 0;
    for (const auto &level : levels_)
        total += level.config().latency;
    return total;
}

} // namespace leaky::sys
