/**
 * @file
 * Sweep execution and collection: expand a SweepSpec, run every job on
 * a work-stealing pool (one isolated sys::System per job), and merge
 * the per-job rows in job-index order so the result — and the CSV
 * rendered from it — is bit-identical for any thread count.
 */

#ifndef LEAKY_RUNNER_RUNNER_HH
#define LEAKY_RUNNER_RUNNER_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/sweep.hh"

namespace leaky::runner {

/** Merged outcome of one sweep. */
struct SweepResult {
    std::vector<std::string> columns;
    /** All job rows, concatenated in job-index order. */
    std::vector<std::vector<double>> rows;
    std::size_t jobs = 0;
    double wall_seconds = 0.0; ///< Wall clock, diagnostics only.
};

/** One job a sweep lost: which point of the sweep, and why. */
struct JobFailure {
    std::size_t index = 0;
    std::string params; ///< e.g. "intensity=50, pattern=2".
    std::string message;
};

/**
 * Thrown by runSweep when jobs failed. The batch always drains first,
 * so the rows of every *completed* job survive in partial() — a
 * million-job sweep that loses one cell no longer loses the rest —
 * and failures() names every failing job by index and axis values
 * (the first one is quoted in what()).
 */
class SweepError : public std::runtime_error
{
  public:
    SweepError(const std::string &what, SweepResult partial,
               std::vector<JobFailure> failures)
        : std::runtime_error(what), partial_(std::move(partial)),
          failures_(std::move(failures))
    {
    }

    const SweepResult &partial() const { return partial_; }
    const std::vector<JobFailure> &failures() const { return failures_; }

  private:
    SweepResult partial_;
    std::vector<JobFailure> failures_;
};

/** `name=value, ...` rendering of a job's axis point (csvCell form). */
std::string describeJobParams(const Job &job);

/** Expand and run @p spec on a fresh pool of @p threads workers
 *  (0 = hardware concurrency). Throws SweepError (carrying the
 *  completed jobs' rows) if any job throws. */
SweepResult runSweep(const SweepSpec &spec, unsigned threads = 0);

/** Render columns + rows as CSV. Numeric formatting is locale-free and
 *  round-trip exact, so equal results give byte-equal files. */
std::string toCsv(const SweepResult &result);

/** Format one cell the way toCsv does (shortest round-trip form). */
std::string csvCell(double value);

/**
 * Write @p content to @p path atomically: the bytes land in
 * `<path>.tmp` first and are renamed into place, so a kill mid-write
 * can never leave a truncated artifact behind — readers see either
 * the old file or the complete new one. Throws on I/O failure.
 */
void writeFile(const std::string &path, const std::string &content);

} // namespace leaky::runner

#endif // LEAKY_RUNNER_RUNNER_HH
