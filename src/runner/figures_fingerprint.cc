/**
 * @file
 * Website-fingerprinting figure family: feature collection and the
 * classifier studies (Figs. 9-10, Table 2) plus the §10.3 cache /
 * prefetcher sensitivity study. Collection jobs reduce one (site,
 * load) trace to the 39-feature fingerprint vector; model training
 * happens post-sweep in summarize, over the merged rows.
 */

#include "runner/figures_internal.hh"

#include <cstddef>
#include <memory>
#include <string>

#include "attack/fingerprint.hh"
#include "core/experiments.hh"
#include "core/report.hh"
#include "ml/dataset.hh"
#include "ml/ensemble.hh"
#include "ml/metrics.hh"
#include "ml/tree.hh"
#include "workload/website.hh"

namespace leaky::runner {

namespace {

using attack::ChannelKind;

constexpr std::uint32_t kFingerprintWindows = 32;

} // namespace

SweepSpec
collectionSpec(const core::FingerprintSpec &fp)
{
    SweepSpec spec;
    spec.axes = {{"site", iota(fp.sites)},
                 {"load", iota(fp.loads_per_site)}};
    spec.columns = {"site", "load", "backoffs"};
    for (std::uint32_t f = 0; f < kFingerprintWindows + 7; ++f)
        spec.columns.push_back("f" + std::to_string(f));
    spec.job = [fp](const Job &job) -> JobRows {
        const auto sample = core::collectOneFingerprint(
            fp, static_cast<std::uint32_t>(job.param("site")),
            static_cast<std::uint32_t>(job.param("load")));
        const auto features = attack::extractFeatures(
            sample.backoff_times, sample.duration,
            kFingerprintWindows);
        std::vector<double> row = {
            job.param("site"), job.param("load"),
            static_cast<double>(sample.backoff_times.size())};
        row.insert(row.end(), features.values.begin(),
                   features.values.end());
        return {std::move(row)};
    };
    return spec;
}

ml::Dataset
datasetFromRows(const SweepResult &result)
{
    ml::Dataset data;
    for (const auto &row : result.rows)
        data.add(std::vector<double>(row.begin() + 3, row.end()),
                 static_cast<int>(row[0]));
    return data;
}

std::string
backoffStrip(const std::vector<double> &row)
{
    // The first 24 windowed features are the strip cells.
    return core::sparkline(
        std::vector<double>(row.begin() + 3, row.begin() + 3 + 24));
}

namespace {

/** The collection of @p sites x @p loads at @p duration. Every load
 *  keeps the base @p seed: the website trace is a function of (site,
 *  load, seed), so loads are the paper's repeated page visits, not
 *  fresh sites. */
core::FingerprintSpec
visits(std::uint32_t sites, std::uint32_t loads, sim::Tick duration,
       std::uint64_t seed)
{
    core::FingerprintSpec fp;
    fp.sites = sites;
    fp.loads_per_site = loads;
    fp.duration = duration;
    fp.seed = seed;
    return fp;
}

// ---------------------------------------------------- Figs. 9 and 10

Figure
fingerprintFigure()
{
    auto sweep = [](Scale scale, std::uint64_t seed) {
        std::uint32_t sites = 8, loads = 10;
        sim::Tick duration = 2 * sim::kMs;
        if (scale == Scale::kSmoke) {
            sites = 4;
            loads = 6;
        } else if (scale == Scale::kFull) {
            sites = 40;
            loads = 50;
            duration = 4 * sim::kMs;
        }
        return collectionSpec(visits(sites, loads, duration, seed));
    };
    auto summarize = [](const SweepResult &result) {
        // Rebuild the dataset from the merged rows and train the
        // paper's classifier on held-out loads (Fig. 10).
        const auto data = datasetFromRows(result);
        const auto split = ml::stratifiedSplit(data, 0.25, 99);
        ml::RandomForest model;
        model.fit(split.train);
        const auto cm = ml::evaluate(model, split.test);
        core::Table table({"metric", "value"});
        table.addRow({"held-out accuracy", core::fmt(cm.accuracy(), 3)});
        table.addRow({"chance", core::fmt(1.0 / data.n_classes, 3)});
        table.addRow({"macro F1", core::fmt(cm.macroF1(), 3)});
        return table.str() +
               "\npaper reference: ~90% accuracy over 40 sites at "
               "NRH = 64 (Fig. 10).\n";
    };
    return makeFigure("fingerprint",
                      "Website fingerprinting via PRAC back-off traces",
                      "Figs. 9 & 10, Table 2", "fig_website_fingerprint.csv",
                      2025, sweep, summarize);
}

// ------------------------------------------------------------ Fig. 9

Figure
stripsFigure()
{
    auto sweep = [](Scale scale, std::uint64_t seed) {
        // Site indices of wikipedia (34), reddit (24), youtube (38).
        SweepSpec spec = collectionSpec(visits(
            40, 2, scale == Scale::kFull ? 4 * sim::kMs : 2 * sim::kMs,
            seed));
        spec.axes[0].values = scale == Scale::kSmoke
                                  ? std::vector<double>{34, 24}
                                  : std::vector<double>{34, 24, 38};
        return spec;
    };
    auto summarize = [](const SweepResult &result) {
        std::string out;
        for (const auto &row : result.rows) {
            const auto &name = workload::websiteNames()[
                static_cast<std::size_t>(row[0])];
            out += name + " load " + core::fmt(row[1], 0) + "  [" +
                   backoffStrip(row) + "]  (" +
                   core::fmt(row[2], 0) + " back-offs)\n";
        }
        return out +
               "\nEach cell is one execution window; darker = more "
               "back-offs. Loads of one site match; sites differ; "
               "early windows look alike (browser startup).\n";
    };
    return makeFigure("strips",
                      "Back-off strips of repeated website loads "
                      "(wikipedia / reddit / youtube)",
                      "Fig. 9", "fig_fingerprint_strips.csv", 2025, sweep,
                      summarize);
}

// ------------------------------------------------- Fig. 10, Table 2

Figure
classifiersFigure()
{
    auto sweep = [](Scale scale, std::uint64_t seed) {
        std::uint32_t sites = 12, loads = 12;
        sim::Tick duration = 2 * sim::kMs;
        if (scale == Scale::kSmoke) {
            sites = 4;
            loads = 4;
            duration = sim::kMs;
        } else if (scale == Scale::kFull) {
            sites = 40;
            loads = 50;
            duration = 4 * sim::kMs;
        }
        return collectionSpec(visits(sites, loads, duration, seed));
    };
    // Both studies train on one collection: the eight models on a
    // stratified split (Fig. 10), then the decision tree under k-fold
    // cross-validation (Table 2).
    auto summarize = [](const SweepResult &result) {
        const auto data = datasetFromRows(result);
        const auto split = ml::stratifiedSplit(data, 0.25, 77);
        core::Table models({"model", "test accuracy"});
        for (const auto &model : ml::makeFig10Models()) {
            model->fit(split.train);
            const auto cm = ml::evaluate(*model, split.test);
            models.addRow({model->name(), core::fmt(cm.accuracy(), 3)});
        }
        models.addRow({"(chance)", core::fmt(1.0 / data.n_classes, 3)});

        // Fold count follows the collection size: the paper's 10-fold
        // needs 50 loads per site; smaller scales keep folds <= loads.
        double max_load = 0;
        for (const auto &row : result.rows)
            max_load = row[1] > max_load ? row[1] : max_load;
        const auto loads = static_cast<std::uint32_t>(max_load) + 1;
        const std::uint32_t folds = loads >= 50 ? 10
                                    : loads >= 10 ? 5
                                                  : 3;
        const auto cv = ml::crossValidate(
            [] { return std::make_unique<ml::DecisionTree>(); }, data,
            folds);
        core::Table kfold({"metric", "mean (%)", "stddev"});
        kfold.addRow({"F1", core::fmt(cv.f1.mean * 100.0, 1),
                      core::fmt(cv.f1.stddev * 100.0, 1)});
        kfold.addRow({"Precision",
                      core::fmt(cv.precision.mean * 100.0, 1),
                      core::fmt(cv.precision.stddev * 100.0, 1)});
        kfold.addRow({"Recall", core::fmt(cv.recall.mean * 100.0, 1),
                      core::fmt(cv.recall.stddev * 100.0, 1)});
        kfold.addRow({"Accuracy",
                      core::fmt(cv.accuracy.mean * 100.0, 1),
                      core::fmt(cv.accuracy.stddev * 100.0, 1)});
        return models.str() +
               "\npaper reference: DT 0.75, RF 0.48, GB 0.47, kNN "
               "0.30, SVM 0.11, LR 0.08, Ada 0.08, Perc 0.06 "
               "(chance 0.025).\n\nDecision tree, " +
               std::to_string(folds) + "-fold cross-validation:\n" +
               kfold.str() +
               "\npaper reference (10-fold): F1 71.8 (4.2), precision "
               "74.1 (4.4), recall 72.4 (4.2).\n";
    };
    return makeFigure("classifiers",
                      "Accuracy of eight classical ML models and the "
                      "decision tree's k-fold cross-validation",
                      "Fig. 10, Table 2", "fig_classifier_accuracy.csv",
                      2025, sweep, summarize);
}

// ------------------------------------------------------------- §10.3

Figure
cachePrefetchFigure()
{
    auto sweep = [](Scale scale, std::uint64_t seed) {
        SweepSpec spec;
        // Scenarios: 0 = PRAC channel, 1 = RFM channel,
        // 2 = fingerprint accuracy (default/full only — the whole
        // collection runs inside one job).
        spec.axes = {{"scenario", scale == Scale::kSmoke
                                      ? std::vector<double>{0, 1}
                                      : std::vector<double>{0, 1, 2}},
                     {"large_caches", {0, 1}}};
        const std::size_t bytes = byScale<std::size_t>(scale, 4, 20, 100);
        const std::uint32_t fp_sites = scale == Scale::kFull ? 40 : 6;
        const std::uint32_t fp_loads = scale == Scale::kFull ? 50 : 6;
        const sim::Tick fp_duration = 2 * sim::kMs;
        spec.columns = {"scenario", "large_caches", "error", "value"};
        spec.job = [bytes, fp_sites, fp_loads, fp_duration,
                    seed](const Job &job) -> JobRows {
            const bool large = job.param("large_caches") > 0.5;
            const auto scenario =
                static_cast<int>(job.param("scenario"));
            if (scenario < 2) {
                core::ChannelRunSpec run;
                // Scenarios 0 and 1 are the channels' CSV encodings.
                run.kind = asEnum<ChannelKind>(scenario);
                run.message_bytes = bytes;
                run.large_caches = large;
                run.seed = job.seed;
                // A background app exercises the caches/prefetcher.
                run.background = {workload::appsWithIntensity(
                    workload::Intensity::kMedium)[1]};
                const auto sweep = core::runPatternSweep(run);
                return {{job.param("scenario"),
                         job.param("large_caches"),
                         sweep.error_probability, sweep.capacity}};
            }
            // The base seed keeps the base/large datasets paired.
            core::FingerprintSpec fp =
                visits(fp_sites, fp_loads, fp_duration, seed);
            fp.large_caches = large;
            // The whole collection runs inside this job; a one-thread
            // sweep spawns no workers.
            const auto data =
                datasetFromRows(runSweep(collectionSpec(fp), 1));
            const auto split = ml::stratifiedSplit(data, 0.25, 77);
            ml::DecisionTree dt;
            dt.fit(split.train);
            const double acc = ml::evaluate(dt, split.test).accuracy();
            return {{job.param("scenario"), job.param("large_caches"),
                     1.0 - acc, acc}};
        };
        return spec;
    };
    auto summarize = [](const SweepResult &result) {
        const char *names[] = {"PRAC channel (Kbps)",
                               "RFM channel (Kbps)",
                               "fingerprint accuracy"};
        core::Table table({"attack", "baseline",
                           "large caches + BO", "change"});
        for (int scenario = 0; scenario < 3; ++scenario) {
            double base = 0, large = 0;
            bool seen = false;
            for (const auto &row : result.rows) {
                if (static_cast<int>(row[0]) != scenario)
                    continue;
                seen = true;
                (row[1] > 0.5 ? large : base) = row[3];
            }
            if (!seen)
                continue;
            const bool kbps = scenario < 2;
            const double shown_base = kbps ? base / 1000.0 : base;
            const double shown_large = kbps ? large / 1000.0 : large;
            table.addRow(
                {names[scenario], core::fmt(shown_base, kbps ? 1 : 3),
                 core::fmt(shown_large, kbps ? 1 : 3),
                 base > 0 ? core::fmt((large / base - 1.0) * 100.0, 1)
                                + "%"
                          : "-"});
        }
        return table.str() +
               "\npaper reference: 36.7 Kbps (-5.8%), 47.7 Kbps "
               "(-2.1%), accuracy 71.8% (-4.2%) — larger caches and "
               "prefetching do NOT prevent LeakyHammer.\n";
    };
    return makeFigure("cache-prefetch",
                      "Sensitivity to larger caches and Best-Offset "
                      "prefetching",
                      "§10.3", "tab_cache_prefetch.csv", 1, sweep,
                      summarize);
}

} // namespace

std::vector<Figure>
fingerprintFigures()
{
    std::vector<Figure> figures;
    figures.push_back(fingerprintFigure());
    figures.push_back(stripsFigure());
    figures.push_back(classifiersFigure());
    figures.push_back(cachePrefetchFigure());
    return figures;
}

} // namespace leaky::runner
