#include "figbench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "runner/runner.hh"
#include "sim/logging.hh"

namespace figbench {

namespace {

using Clock = std::chrono::steady_clock;

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

std::string
digestKey(const std::string &workload, const std::string &scale,
          std::uint64_t seed)
{
    return workload + ' ' + scale + ' ' + std::to_string(seed);
}

/** Process CPU seconds (user + sys, all threads so far). */
double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/** Quantile @p q in [0, 1] by linear interpolation between the closest
 *  ranks; asserts a non-empty sample. */
double
quantile(std::vector<double> samples, double q)
{
    LEAKY_ASSERT(!samples.empty(), "quantile of an empty sample");
    std::sort(samples.begin(), samples.end());
    const double pos = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + frac * (samples[hi] - samples[lo]);
}

} // namespace

Quartiles
quartiles(const std::vector<double> &samples)
{
    return {samples.size(), quantile(samples, 0.5),
            quantile(samples, 0.75)};
}

double
median(const std::vector<double> &samples)
{
    return quantile(samples, 0.5);
}

double
poolUtil(const std::vector<Span> &spans, double wall_s, unsigned threads)
{
    LEAKY_ASSERT(wall_s > 0.0 && threads > 0,
                 "pool utilisation needs a wall time and workers");
    double busy = 0.0;
    for (const auto &span : spans)
        busy += span.end - span.start;
    return busy / (wall_s * threads);
}

std::string
digest(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(h));
    return hex;
}

Expected
Expected::parse(std::istream &in)
{
    Expected table;
    std::string line;
    for (int number = 1; std::getline(in, line); ++number) {
        line = line.substr(0, line.find('#'));
        std::istringstream fields(line);
        std::string kind;
        if (!(fields >> kind))
            continue;
        std::string workload, extra;
        bool ok = false;
        if (kind == "digest") {
            std::string scale, hex;
            std::uint64_t seed = 0;
            ok = static_cast<bool>(fields >> workload >> scale >> seed >>
                                   hex) &&
                 hex.size() == 16 &&
                 hex.find_first_not_of("0123456789abcdef") ==
                     std::string::npos;
            if (ok)
                table.digests_[digestKey(workload, scale, seed)] = hex;
        } else if (kind == "sentinel") {
            std::string name;
            double value = 0.0;
            ok = static_cast<bool>(fields >> workload >> name >> value);
            if (ok)
                table.sentinels_[workload][name] = value;
        }
        if (!ok || fields >> extra)
            throw std::runtime_error("expectations line " +
                                     std::to_string(number) +
                                     " is malformed: " + line);
    }
    return table;
}

const std::string *
Expected::digestFor(const std::string &workload, const std::string &scale,
                    std::uint64_t seed) const
{
    const auto it = digests_.find(digestKey(workload, scale, seed));
    return it == digests_.end() ? nullptr : &it->second;
}

std::map<std::string, double>
Expected::sentinels(const std::string &workload) const
{
    const auto it = sentinels_.find(workload);
    return it == sentinels_.end() ? std::map<std::string, double>{}
                                  : it->second;
}

OutputCheck::OutputCheck(const Expected &expected, std::string workload,
                         std::string scale)
    : expected_(expected), workload_(std::move(workload)),
      scale_(std::move(scale))
{
}

std::string
OutputCheck::check(std::uint64_t seed, const std::string &csv)
{
    const std::string got = digest(csv);
    const std::string where = workload_ + " seed " + std::to_string(seed);
    if (const std::string *want =
            expected_.digestFor(workload_, scale_, seed);
        want && *want != got)
        return where + ": CSV digest " + got + " != recorded " + *want;
    const auto [it, first] = seen_.emplace(seed, got);
    if (!first && it->second != got)
        return where + ": rerun CSV digest " + got +
               " != first run's " + it->second;
    return "";
}

Rep
runRep(const leaky::runner::Figure &figure,
       const leaky::runner::RunOptions &opts, bool traced)
{
    using namespace leaky::runner;
    Rep rep;
    const auto rep_start = Clock::now();
    SweepSpec spec = figure.make(opts);
    rep.seed = spec.base_seed;
    rep.jobs = jobCount(spec);
    rep.traced = traced;
    if (traced)
        rep.spans.resize(rep.jobs);

    // The wrapper runs on the pool's workers: each writes only its own
    // job's span slot, and the first-start stamp is claimed by exactly
    // one worker; runSweep's join orders both before the reads below.
    std::atomic<bool> started{false};
    Clock::time_point first_start{};
    Clock::time_point sweep_start{};
    JobFn job = std::move(spec.job);
    spec.job = [&](const Job &j) {
        const auto start = Clock::now();
        if (!started.exchange(true, std::memory_order_relaxed))
            first_start = start;
        JobRows rows = job(j);
        if (traced)
            rep.spans[j.index] = {seconds(start - sweep_start),
                                  seconds(Clock::now() - sweep_start)};
        return rows;
    };

    const double cpu_start = cpuSeconds();
    sweep_start = Clock::now();
    try {
        rep.result = runSweep(spec, opts.threads);
    } catch (const SweepError &error) {
        rep.failed = error.failures().size();
    }
    const auto sweep_end = Clock::now();
    if (rep.failed == 0) {
        if (figure.summarize)
            rep.summary = figure.summarize(rep.result);
        rep.summarize_s = seconds(Clock::now() - sweep_end);
        rep.csv = toCsv(rep.result);
    }
    const auto end = Clock::now();
    rep.cpu_s = cpuSeconds() - cpu_start;
    rep.wall_s = seconds(end - sweep_start);
    rep.sweep_s = seconds(sweep_end - sweep_start);
    rep.setup_s = started.load(std::memory_order_relaxed)
                      ? seconds(first_start - rep_start)
                      : 0.0;
    return rep;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace figbench
