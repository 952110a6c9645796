/**
 * @file
 * Pattern-fuzzer figure family: the Blacksmith-style fuzzer turns the
 * frequency/phase/amplitude pattern space into registry figures.
 *
 *  - `fuzz-search`: one evolutionary campaign per defense, one CSV row
 *    per generation (best/mean score, best capacity/error, preventive
 *    actions of the best) — "does searching the pattern space beat the
 *    hand-written sender, and how fast does it converge".
 *  - `fuzz-replay`: the deterministic replayer as a figure — every
 *    catalogue pattern (hand-written baselines + pinned discoveries)
 *    replayed against each defense under identical cells.
 *
 * One sweep job = one COMPLETE sequential campaign (or one replayed
 * pattern), so both figures are bit-identical for any thread count.
 */

#include "runner/figures_internal.hh"

#include <string>

#include "core/report.hh"
#include "fuzz/campaign.hh"
#include "fuzz/replay.hh"

namespace leaky::runner {

namespace {

using defense::DefenseKind;

/** Search budget per scale; evaluation cost is population +
 *  (generations-1) x (population - elites) covert runs per defense. */
fuzz::CampaignConfig
campaignAt(Scale scale, DefenseKind kind, std::uint64_t stream_seed,
           std::uint64_t base_seed)
{
    fuzz::CampaignConfig cfg;
    cfg.defense = kind;
    cfg.population = byScale<std::uint32_t>(scale, 4, 8, 16);
    cfg.generations = byScale<std::uint32_t>(scale, 3, 5, 8);
    cfg.elites = 2;
    cfg.message_bytes = byScale<std::size_t>(scale, 4, 8, 20);
    cfg.params.seed = stream_seed;
    // Shared seed rule (evalSeedFor): the fuzz-replay figure and the
    // acceptance tests evaluate under the same defense seed, so a
    // discovered pattern's score transfers exactly.
    cfg.eval_seed = fuzz::evalSeedFor(base_seed, kind);
    return cfg;
}

Axis
defenseAxis(Scale scale)
{
    // Smoke: the PRAC family's back-off channel plus both trackers —
    // the cells the acceptance pins (discovered beats baseline).
    return enumAxis("defense",
                    scale == Scale::kSmoke
                        ? std::vector<DefenseKind>{DefenseKind::kPrac,
                                                   DefenseKind::kGraphene,
                                                   DefenseKind::kHydra}
                        : fuzz::campaignDefenses());
}

/** The fuzz-search entry's name and default seed, shared by the
 *  figure and `leakyhammer fuzz`. */
constexpr char kSearchName[] = "fuzz-search";
constexpr std::uint64_t kSearchSeed = 1;

/** See fuzzSearchSpec; @p base_seed is already resolved. */
SweepSpec
searchSweep(Scale scale, std::uint64_t base_seed,
            std::vector<fuzz::CampaignResult> *capture)
{
    SweepSpec spec;
    spec.axes = {defenseAxis(scale)};
    spec.columns = {"defense",       "generation",  "best_score",
                    "best_capacity", "best_error",  "best_actions",
                    "mean_score"};
    if (capture) {
        capture->assign(jobCount(spec), fuzz::CampaignResult{});
    }
    spec.job = [scale, capture, base_seed](const Job &job) -> JobRows {
        const auto kind = asEnum<DefenseKind>(job.param("defense"));
        const fuzz::CampaignResult result = fuzz::runCampaign(
            campaignAt(scale, kind, job.seed, base_seed));
        JobRows rows;
        rows.reserve(result.stats.size());
        for (const fuzz::GenerationStat &stat : result.stats) {
            rows.push_back({job.param("defense"),
                            static_cast<double>(stat.generation),
                            stat.best_score, stat.best_capacity,
                            stat.best_error,
                            static_cast<double>(stat.best_actions),
                            stat.mean_score});
        }
        if (capture)
            (*capture)[job.index] = result;
        return rows;
    };
    return spec;
}

} // namespace

SweepSpec
fuzzSearchSpec(const RunOptions &opts,
               std::vector<fuzz::CampaignResult> *capture)
{
    return resolveSweep(opts, kSearchName, kSearchSeed,
                        [capture](Scale scale, std::uint64_t seed) {
                            return searchSweep(scale, seed, capture);
                        });
}

namespace {

Figure
fuzzSearchFigure()
{
    auto sweep = [](Scale scale, std::uint64_t seed) {
        return searchSweep(scale, seed, nullptr);
    };
    auto summarize = [](const SweepResult &result) {
        core::Table table({"defense", "generation", "best score",
                           "best capacity (Kbps)", "best error",
                           "mean score"});
        for (const auto &row : result.rows) {
            table.addRow({defense::defenseName(asEnum<DefenseKind>(row[0])),
                          core::fmt(row[1], 0),
                          core::fmt(row[2] / 1000.0, 1),
                          core::fmt(row[3] / 1000.0, 1),
                          core::fmt(row[4], 3),
                          core::fmt(row[6] / 1000.0, 1)});
        }
        return table.str() +
               "\nThe search only ever improves (elitism), and against "
               "the tracker family it finds multi-row patterns that "
               "beat the single-row hand-written sender — the covert "
               "channel is a property of the pattern SPACE, not of one "
               "crafted attack.\n";
    };
    return makeFigure(kSearchName,
                      "Fuzzer search progress: best pattern score per "
                      "generation and defense",
                      "§6-§7, §13 (pattern-space search beyond the "
                      "hand-written senders)",
                      "fig_fuzz_search.csv", kSearchSeed, sweep, summarize);
}

Figure
fuzzReplayFigure()
{
    auto sweep = [](Scale scale, std::uint64_t base_seed) {
        SweepSpec spec;
        spec.axes = {
            {"pattern",
             iota(static_cast<std::uint32_t>(fuzz::replayCatalogue()
                                                 .size()))},
            defenseAxis(scale)};
        const std::size_t bytes = byScale<std::size_t>(scale, 4, 8, 20);
        spec.columns = {"pattern",  "defense", "discovered",
                        "capacity", "error_probability", "score",
                        "actions",  "leakage"};
        spec.job = [bytes, base_seed](const Job &job) -> JobRows {
            const auto &entry = fuzz::replayCatalogue().at(
                static_cast<std::size_t>(job.param("pattern")));
            fuzz::EvalSpec eval;
            eval.defense = asEnum<DefenseKind>(job.param("defense"));
            eval.message_bytes = bytes;
            // Same per-defense seed as the search campaigns
            // (evalSeedFor), so discovered scores transfer exactly.
            eval.seed = fuzz::evalSeedFor(base_seed, eval.defense);
            std::vector<double> row = {job.param("pattern"),
                                       job.param("defense"),
                                       entry.discovered ? 1.0 : 0.0};
            for (double value : fuzz::replaySerialized(entry.text, eval))
                row.push_back(value);
            return {row};
        };
        return spec;
    };
    auto summarize = [](const SweepResult &result) {
        core::Table table({"pattern", "origin", "defense", "error prob",
                           "capacity (Kbps)", "actions"});
        for (const auto &row : result.rows) {
            const auto &entry = fuzz::replayCatalogue().at(
                static_cast<std::size_t>(row[0]));
            table.addRow({entry.name,
                          entry.discovered ? "fuzzer" : "hand-written",
                          defense::defenseName(asEnum<DefenseKind>(row[1])),
                          core::fmt(row[4], 3),
                          core::fmt(row[3] / 1000.0, 1),
                          core::fmt(row[6], 0)});
        }
        return table.str() +
               "\nAny serialized pattern is a reproducible experiment: "
               "the pinned fuzzer discoveries replay here against the "
               "same cells as the hand-written baselines they beat.\n";
    };
    return makeFigure("fuzz-replay",
                      "Replayed patterns vs defenses: discovered patterns "
                      "against hand-written baselines",
                      "§6-§7, §13 (replayable evidence)",
                      "fig_fuzz_replay.csv", 1, sweep, summarize);
}

} // namespace

std::vector<Figure>
fuzzFigures()
{
    std::vector<Figure> figures;
    figures.push_back(fuzzSearchFigure());
    figures.push_back(fuzzReplayFigure());
    return figures;
}

} // namespace leaky::runner
