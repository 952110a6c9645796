#include "runner/figures.hh"

#include <filesystem>
#include <iterator>
#include <utility>

#include "runner/figures_internal.hh"

namespace leaky::runner {

const char *
scaleName(Scale scale)
{
    return scale == Scale::kFull    ? "full"
           : scale == Scale::kSmoke ? "smoke"
                                    : "default";
}

SweepSpec
resolveSweep(const RunOptions &opts, const std::string &name,
             std::uint64_t default_seed, const SpecBuilder &build)
{
    const std::uint64_t seed = opts.seed ? opts.seed : default_seed;
    SweepSpec spec = build(opts.scale(), seed);
    spec.name = name;
    spec.base_seed = seed;
    return spec;
}

Figure
makeFigure(std::string name, std::string title, std::string paper_ref,
           std::string csv_name, std::uint64_t default_seed,
           SpecBuilder build,
           std::function<std::string(const SweepResult &)> summarize)
{
    Figure fig;
    fig.name = std::move(name);
    fig.title = std::move(title);
    fig.paper_ref = std::move(paper_ref);
    fig.csv_name = std::move(csv_name);
    fig.make = [name = fig.name, default_seed,
                build = std::move(build)](const RunOptions &opts) {
        return resolveSweep(opts, name, default_seed, build);
    };
    fig.summarize = std::move(summarize);
    return fig;
}

std::vector<double>
iota(std::uint32_t count)
{
    std::vector<double> values;
    for (std::uint32_t i = 0; i < count; ++i)
        values.push_back(i);
    return values;
}

std::map<std::vector<double>, double>
groupMean(const SweepResult &result, const std::vector<std::size_t> &keys,
          std::size_t value)
{
    std::map<std::vector<double>, std::pair<double, std::size_t>> acc;
    for (const auto &row : result.rows) {
        std::vector<double> key;
        for (auto k : keys)
            key.push_back(row[k]);
        auto &cell = acc[key];
        cell.first += row[value];
        cell.second += 1;
    }
    std::map<std::vector<double>, double> means;
    for (const auto &[key, cell] : acc)
        means[key] = cell.first / static_cast<double>(cell.second);
    return means;
}

const std::vector<Figure> &
figures()
{
    static const std::vector<Figure> registry = [] {
        std::vector<Figure> all;
        for (auto family_of : {covertFigures, fingerprintFigures,
                               countermeasureFigures, trackerFigures,
                               scalingFigures, fuzzFigures}) {
            auto family = family_of();
            all.insert(all.end(),
                       std::make_move_iterator(family.begin()),
                       std::make_move_iterator(family.end()));
        }
        return all;
    }();
    return registry;
}

const Figure *
findFigure(const std::string &name)
{
    for (const auto &figure : figures())
        if (figure.name == name)
            return &figure;
    return nullptr;
}

FigureOutcome
reproduceFigure(const Figure &figure, const RunOptions &opts)
{
    const SweepSpec spec = figure.make(opts);
    FigureOutcome outcome;
    outcome.sweep = runSweep(spec, opts.threads);
    if (!opts.out_dir.empty() && opts.out_dir != ".")
        std::filesystem::create_directories(opts.out_dir);
    outcome.csv_path =
        (std::filesystem::path(opts.out_dir) / figure.csv_name)
            .string();
    writeFile(outcome.csv_path, toCsv(outcome.sweep));
    if (figure.summarize)
        outcome.summary = figure.summarize(outcome.sweep);
    return outcome;
}

std::string
goldenCsv(const Figure &figure, unsigned threads)
{
    RunOptions opts;
    opts.threads = threads;
    opts.smoke = true;
    const SweepSpec spec = figure.make(opts);
    return toCsv(runSweep(spec, threads));
}

std::string
goldenPath(const std::string &golden_dir, const Figure &figure)
{
    return (std::filesystem::path(golden_dir) / (figure.name + ".csv"))
        .string();
}

} // namespace leaky::runner
