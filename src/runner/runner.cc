#include "runner/runner.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "runner/pool.hh"
#include "sim/logging.hh"

namespace leaky::runner {

std::string
describeJobParams(const Job &job)
{
    std::string out;
    for (const auto &[name, value] : job.params) {
        if (!out.empty())
            out += ", ";
        out += name + "=" + csvCell(value);
    }
    return out.empty() ? "no params" : out;
}

SweepResult
runSweep(const SweepSpec &spec, unsigned threads)
{
    SweepPool pool(threads);
    const auto jobs = expandJobs(spec);
    // lint:allow(no-wallclock): wall_seconds is operator telemetry (how long the sweep took), never a result row
    const auto start = std::chrono::steady_clock::now();

    // One slot per job: workers write disjoint slots, no locking, and
    // the merge below is independent of completion order.
    std::vector<JobRows> per_job(jobs.size());
    const auto errors = pool.forEachIsolated(jobs.size(), [&](std::size_t i) {
        per_job[i] = spec.job(jobs[i]);
        for (const auto &row : per_job[i])
            LEAKY_ASSERT(row.size() == spec.columns.size(),
                         "job row arity != sweep columns");
    });

    // Failed jobs left their slot empty; every completed job's rows
    // are merged (in job-index order) whether or not a sibling threw.
    SweepResult result;
    result.columns = spec.columns;
    result.jobs = jobs.size();
    for (auto &rows : per_job)
        for (auto &row : rows)
            result.rows.push_back(std::move(row));
    // lint:allow(no-wallclock): paired with the start timestamp above
    const auto end = std::chrono::steady_clock::now();
    result.wall_seconds =
        std::chrono::duration<double>(end - start).count();
    if (!errors.empty()) {
        std::vector<JobFailure> failures;
        failures.reserve(errors.size());
        for (const auto &error : errors)
            failures.push_back({error.index,
                                describeJobParams(jobs[error.index]),
                                error.message});
        std::string what = "sweep '" + spec.name + "': job " +
                           std::to_string(failures.front().index) +
                           " (" + failures.front().params +
                           ") failed: " + failures.front().message;
        if (failures.size() > 1)
            what += " (+" + std::to_string(failures.size() - 1) +
                    " more failed jobs)";
        what += "; " +
                std::to_string(jobs.size() - failures.size()) + "/" +
                std::to_string(jobs.size()) + " jobs completed";
        throw SweepError(what, std::move(result), std::move(failures));
    }
    return result;
}

std::string
csvCell(double value)
{
    // Shortest decimal form that round-trips exactly: equal doubles
    // always render to equal bytes, so reruns diff cleanly.
    char buf[40];
    for (int precision = 1; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof buf, "%.*g", precision, value);
        if (std::strtod(buf, nullptr) == value)
            break;
    }
    return buf;
}

std::string
toCsv(const SweepResult &result)
{
    std::string out;
    for (std::size_t c = 0; c < result.columns.size(); ++c) {
        if (c)
            out += ',';
        out += result.columns[c];
    }
    out += '\n';
    for (const auto &row : result.rows) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (c)
                out += ',';
            out += csvCell(row[c]);
        }
        out += '\n';
    }
    return out;
}

void
writeFile(const std::string &path, const std::string &content)
{
    // Write-then-rename: rename(2) is atomic, so a kill between the
    // two steps leaves at worst a stale .tmp next to an intact target,
    // never a truncated target.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
        if (!file)
            throw std::runtime_error("cannot open " + tmp +
                                     " for writing");
        file << content;
        file.flush();
        if (!file)
            throw std::runtime_error("write to " + tmp + " failed");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        throw std::runtime_error("cannot rename " + tmp + " into " +
                                 path);
}

} // namespace leaky::runner
