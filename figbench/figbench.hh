/**
 * @file
 * The figure-level benchmark's measurable pieces, kept apart from
 * main.cc so the self-tests can drive them: order statistics, the
 * pool-utilisation arithmetic, the CSV digest and the table of
 * recorded expectations, and one timed repetition of a registry figure
 * through the public runner API (findFigure -> make -> runSweep ->
 * summarize -> toCsv). Nothing here reaches inside src/: spans are
 * recorded by wrapping each sweep's JobFn from outside.
 */

#ifndef FIGBENCH_FIGBENCH_HH
#define FIGBENCH_FIGBENCH_HH

#include <cstdint>
#include <istream>
#include <map>
#include <string>
#include <vector>

#include "runner/figures.hh"

namespace figbench {

/** One measured value, named and unit-tagged as BENCHMARK.json lists it. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Median and 75th percentile of a sample, with its size. */
struct Quartiles {
    std::size_t n = 0;
    double p50 = 0.0;
    double p75 = 0.0;
};

/** Quartiles by linear interpolation between the closest ranks (numpy's
 *  default); asserts a non-empty sample. */
Quartiles quartiles(const std::vector<double> &samples);

/** Median of a non-empty sample. */
double median(const std::vector<double> &samples);

/** A job's execution interval, in seconds since its sweep started. */
struct Span {
    double start = 0.0;
    double end = 0.0;
};

/** Busy share of the pool: sum of job spans / (wall x threads). */
double poolUtil(const std::vector<Span> &spans, double wall_s,
                unsigned threads);

/**
 * FNV-1a 64 of @p bytes as 16 lowercase hex digits. Each step (xor a
 * byte, multiply by an odd prime mod 2^64) is a bijection of the
 * state, so two inputs of equal length that differ in exactly one byte
 * always get different digests.
 */
std::string digest(const std::string &bytes);

/**
 * The recorded expectations (figbench/expected.txt): the merged-CSV
 * digest per (workload, scale, seed), and the exact simulated
 * statistics of each workload's representative cell. Line grammar:
 *
 *     digest   <workload> <scale> <seed> <16 hex digits>
 *     sentinel <workload> <name> <value>
 *
 * '#' starts a comment; blank lines are ignored.
 */
class Expected
{
  public:
    /** Throws std::runtime_error naming the line on malformed input. */
    static Expected parse(std::istream &in);

    /** The recorded digest, or nullptr when none is recorded. */
    const std::string *digestFor(const std::string &workload,
                                 const std::string &scale,
                                 std::uint64_t seed) const;

    /** Recorded sentinels of @p workload, by metric name. */
    std::map<std::string, double>
    sentinels(const std::string &workload) const;

  private:
    std::map<std::string, std::string> digests_; ///< "w scale seed" ->
    std::map<std::string, std::map<std::string, double>> sentinels_;
};

/**
 * The output check of one run: every CSV is compared with the digest
 * recorded for its (workload, scale, seed) when there is one, and every
 * rerun of a seed within the run must reproduce the first run's bytes.
 */
class OutputCheck
{
  public:
    OutputCheck(const Expected &expected, std::string workload,
                std::string scale);

    /** @return "" when @p csv passes, else why it does not. */
    std::string check(std::uint64_t seed, const std::string &csv);

  private:
    const Expected &expected_;
    std::string workload_;
    std::string scale_;
    std::map<std::uint64_t, std::string> seen_; ///< seed -> digest
};

/** One repetition of a figure, timed with host clocks. */
struct Rep {
    std::uint64_t seed = 0;   ///< The sweep's base seed.
    double setup_s = 0.0;     ///< Rep start -> first job start.
    double wall_s = 0.0;      ///< runSweep call -> CSV rendered.
    double cpu_s = 0.0;       ///< Process user+sys over wall_s.
    double sweep_s = 0.0;     ///< runSweep call -> return.
    double summarize_s = 0.0; ///< Figure::summarize alone.
    std::size_t jobs = 0;
    std::size_t failed = 0;   ///< Jobs that threw.
    leaky::runner::SweepResult result; ///< Empty when a job failed.
    std::string csv;          ///< toCsv(result).
    std::string summary;
    bool traced = false;
    std::vector<Span> spans;  ///< Per job, when traced.
};

/**
 * Expand and run @p figure once: make -> runSweep on a fresh pool of
 * opts.threads workers -> summarize -> toCsv. A job that throws is
 * counted in Rep::failed instead of ending the run; the failed rep then
 * skips summarize and leaves csv empty. With @p traced, each job's span
 * is recorded.
 */
Rep runRep(const leaky::runner::Figure &figure,
           const leaky::runner::RunOptions &opts, bool traced);

/** Peak resident set of the process, MiB. */
double peakRssMb();

} // namespace figbench

#endif // FIGBENCH_FIGBENCH_HH
