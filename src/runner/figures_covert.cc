/**
 * @file
 * Covert-channel figure family: the latency-observability studies
 * (Figs. 2, 11, 12), the channel demonstrations and capacity sweeps
 * (Figs. 3-8), and the §6.3 multibit encodings. Every entry is a
 * deterministic SweepSpec over core/experiments.hh runners.
 */

#include "runner/figures_internal.hh"

#include <cmath>
#include <string>
#include <utility>

#include "attack/message.hh"
#include "core/experiments.hh"
#include "core/report.hh"
#include "stats/channel_metrics.hh"
#include "workload/synthetic.hh"

namespace leaky::runner {

namespace {

using attack::ChannelKind;
using attack::MessagePattern;
using workload::Intensity;

/** The two covert channels, PRAC = 0 and RFM = 1 in the CSVs. */
Axis
channelAxis()
{
    return enumAxis<ChannelKind>("channel",
                                 {ChannelKind::kPrac, ChannelKind::kRfm});
}

/** The four §6.3 message patterns. */
Axis
patternAxis()
{
    return enumAxis<MessagePattern>(
        "pattern",
        {MessagePattern::kAllOnes, MessagePattern::kAllZeros,
         MessagePattern::kCheckered0, MessagePattern::kCheckered1});
}

/** Summary label of a `channel` cell. */
const char *
channelName(double cell)
{
    return asEnum<ChannelKind>(cell) == ChannelKind::kPrac ? "PRAC" : "RFM";
}

// ------------------------------------------------------------ Fig. 2

Figure
latencyFigure()
{
    auto sweep = [](Scale scale, std::uint64_t) {
        SweepSpec spec;
        spec.axes = {{"rfms_per_backoff",
                      scale == Scale::kSmoke
                          ? std::vector<double>{4}
                          : std::vector<double>{1, 2, 4, 8}}};
        // Two alternating rows split the activations, so the probe
        // needs > 2 x NBO iterations before the first back-off shows.
        const std::uint32_t iterations =
            scale == Scale::kSmoke ? 300 : 512;
        spec.columns = {"rfms_per_backoff",  "iterations",
                        "mean_conflict_ns",  "mean_refresh_ns",
                        "mean_backoff_ns",   "backoffs",
                        "refreshes"};
        spec.job = [iterations](const Job &job) -> JobRows {
            const auto rfms = static_cast<std::uint32_t>(
                job.param("rfms_per_backoff"));
            const auto trace = core::runLatencyTrace(iterations, rfms);
            return {{static_cast<double>(rfms),
                     static_cast<double>(iterations),
                     trace.mean_conflict_latency_ns,
                     trace.mean_refresh_latency_ns,
                     trace.mean_backoff_latency_ns,
                     static_cast<double>(trace.backoffs),
                     static_cast<double>(trace.refreshes)}};
        };
        return spec;
    };
    auto summarize = [](const SweepResult &result) {
        core::Table table({"RFMs/back-off", "conflict (ns)",
                           "refresh (ns)", "back-off (ns)"});
        for (const auto &row : result.rows)
            table.addRow({core::fmt(row[0], 0), core::fmt(row[2], 0),
                          core::fmt(row[3], 0), core::fmt(row[4], 0)});
        return table.str() +
               "\nThe three separable bands are what makes preventive "
               "actions user-space observable (paper Fig. 2).\n";
    };
    return makeFigure(
        "latency", "Latency bands of consecutive attacker requests (PRAC)",
        "Fig. 2", "fig_latency_bands.csv", 1, sweep, summarize);
}

// ------------------------------------------- Fig. 2 (back-off period)

Figure
backoffPeriodFigure()
{
    auto sweep = [](Scale scale, std::uint64_t) {
        SweepSpec spec;
        spec.axes = {{"iterations",
                      byScale(scale, std::vector<double>{560},
                              std::vector<double>{560, 1120},
                              std::vector<double>{560, 1120, 2240})}};
        spec.columns = {"iterations", "backoff_ordinal", "position",
                        "delta"};
        spec.job = [](const Job &job) -> JobRows {
            const auto iterations =
                static_cast<std::uint32_t>(job.param("iterations"));
            const auto trace = core::runLatencyTrace(iterations);
            JobRows rows;
            double previous = -1;
            for (std::size_t i = 0; i < trace.samples.size(); ++i) {
                if (trace.classifier.classify(
                        trace.samples[i].latency) !=
                    attack::LatencyClass::kBackoff)
                    continue;
                const auto position = static_cast<double>(i);
                rows.push_back({job.param("iterations"),
                                static_cast<double>(rows.size()),
                                position,
                                previous < 0 ? 0
                                             : position - previous});
                previous = position;
            }
            return rows;
        };
        return spec;
    };
    auto summarize = [](const SweepResult &result) {
        double sum = 0;
        std::size_t count = 0;
        for (const auto &row : result.rows) {
            if (row[1] > 0) { // Ordinal 0 has no predecessor.
                sum += row[3];
                count += 1;
            }
        }
        core::Table table({"metric", "value"});
        table.addRow({"back-offs observed",
                      std::to_string(result.rows.size())});
        table.addRow({"mean period (requests)",
                      count ? core::fmt(sum / count, 1) : "-"});
        table.addRow({"expected (2 x NBO - 1)", "255"});
        return table.str() +
               "\nWith two alternating probe rows each back-off "
               "recurs every 2 x NBO - 1 requests (paper Fig. 2).\n";
    };
    return makeFigure("backoff-period",
                      "Back-off periodicity under continuous hammering "
                      "(2 x NBO - 1 requests)",
                      "Fig. 2 (x-axis)", "fig_backoff_period.csv", 1,
                      sweep, summarize);
}

// ------------------------------------------- Figs. 3 and 6 (messages)

Figure
messageFigure(ChannelKind kind)
{
    const bool prac = kind == ChannelKind::kPrac;
    auto sweep = [kind](Scale scale, std::uint64_t) {
        // Smoke transmits one character; the paper message is "MICRO".
        const std::string message =
            scale == Scale::kSmoke ? "M" : "MICRO";
        SweepSpec spec;
        spec.axes = {{"message_bits",
                      {static_cast<double>(message.size() * 8)}}};
        spec.columns = {"window", "sent", "detections", "decoded"};
        spec.job = [kind, message](const Job &) -> JobRows {
            const auto demo = core::runMessageDemo(kind, message);
            JobRows rows;
            for (std::size_t i = 0; i < demo.sent_bits.size(); ++i)
                rows.push_back(
                    {static_cast<double>(i),
                     demo.sent_bits[i] ? 1.0 : 0.0,
                     static_cast<double>(demo.detections[i]),
                     demo.received_bits[i] ? 1.0 : 0.0});
            return rows;
        };
        return spec;
    };
    auto summarize = [prac](const SweepResult &result) {
        std::vector<bool> sent, decoded;
        std::size_t errors = 0;
        for (const auto &row : result.rows) {
            sent.push_back(row[1] != 0);
            decoded.push_back(row[3] != 0);
            errors += row[1] != row[3] ? 1 : 0;
        }
        core::Table table({"metric", "value"});
        table.addRow({"windows", std::to_string(result.rows.size())});
        table.addRow({"bit errors", std::to_string(errors)});
        table.addRow({"sent text", attack::stringFromBits(sent)});
        table.addRow({"decoded text", attack::stringFromBits(decoded)});
        return table.str() +
               (prac ? "\nEach logic-1 window contains exactly one "
                       "back-off; logic-0 windows none (paper Fig. 3)."
                       "\n"
                     : "\nLogic-1 windows show >= Trecv RFM-latency "
                       "events; logic-0 windows fewer (paper Fig. 6)."
                       "\n");
    };
    return makeFigure(prac ? "message-prac" : "message-rfm",
                      std::string("40-bit \"MICRO\" transmission over "
                                  "the ") +
                          (prac ? "PRAC" : "RFM") + " covert channel",
                      prac ? "Fig. 3" : "Fig. 6",
                      prac ? "fig_message_prac.csv"
                           : "fig_message_rfm.csv",
                      1, sweep, summarize);
}

// ----------------------------------- Figs. 3 & 6 lower panels (§6/7.3)

Figure
bitrateFigure()
{
    auto sweep = [](Scale scale, std::uint64_t) {
        SweepSpec spec;
        spec.axes = {channelAxis(), patternAxis()};
        const std::size_t bytes = byScale<std::size_t>(scale, 4, 25, 100);
        spec.columns = {"channel", "pattern", "raw_bit_rate",
                        "error_probability", "capacity", "backoffs",
                        "rfms"};
        spec.job = [bytes](const Job &job) -> JobRows {
            core::ChannelRunSpec run;
            run.kind = asEnum<ChannelKind>(job.param("channel"));
            run.pattern = asEnum<MessagePattern>(job.param("pattern"));
            run.message_bytes = bytes;
            run.seed = job.seed;
            const auto result = core::runChannel(run);
            return {{job.param("channel"), job.param("pattern"),
                     result.raw_bit_rate, result.symbol_error,
                     result.capacity,
                     static_cast<double>(result.backoffs),
                     static_cast<double>(result.rfms)}};
        };
        return spec;
    };
    auto summarize = [](const SweepResult &result) {
        const auto raw = groupMean(result, {0}, 2);
        const auto error = groupMean(result, {0}, 3);
        const auto capacity = groupMean(result, {0}, 4);
        core::Table table({"channel", "raw (Kbps)", "error prob",
                           "capacity (Kbps)"});
        for (const auto &[key, rate] : raw)
            table.addRow({channelName(key[0]),
                          core::fmt(rate / 1000.0, 1),
                          core::fmt(error.at(key), 3),
                          core::fmt(capacity.at(key) / 1000.0, 1)});
        return table.str() +
               "\npaper reference: raw 39.0 Kbps (PRAC, §6.3) and "
               "48.7 Kbps (RFM, §7.3), averaged over the four "
               "patterns.\n";
    };
    return makeFigure("bitrate",
                      "Noise-free raw bit rate over the four message "
                      "patterns (PRAC and RFM channels)",
                      "§6.3 & §7.3", "fig_raw_bitrate.csv", 1, sweep,
                      summarize);
}

// ----------------------------------------------------- Figs. 4 and 7

Figure
capacityFigure()
{
    auto sweep = [](Scale scale, std::uint64_t) {
        SweepSpec spec;
        std::vector<double> intensities;
        switch (scale) {
          case Scale::kSmoke:
            intensities = {1, 50, 100};
            break;
          case Scale::kDefault:
            intensities = {1, 25, 50, 75, 88, 100};
            break;
          case Scale::kFull:
            intensities = {1,  10, 20, 30, 40, 50,
                           60, 70, 80, 88, 95, 100};
            break;
        }
        spec.axes = {channelAxis(),
                     {"intensity", std::move(intensities)},
                     patternAxis()};
        const std::size_t bytes = byScale<std::size_t>(scale, 4, 20, 100);
        spec.columns = {"channel",  "intensity",
                        "pattern",  "raw_bit_rate",
                        "error_probability", "capacity",
                        "backoffs", "rfms"};
        spec.job = [bytes](const Job &job) -> JobRows {
            core::ChannelRunSpec run;
            run.kind = asEnum<ChannelKind>(job.param("channel"));
            run.pattern = asEnum<MessagePattern>(job.param("pattern"));
            run.message_bytes = bytes;
            run.seed = job.seed;
            // Eq. 2: sleep in [0.2 us, 2 us] maps to intensity
            // [100 %, 1 %].
            run.noise_sleep = stats::sleepForIntensity(
                job.param("intensity"), 200'000, 2'000'000);
            const auto result = core::runChannel(run);
            return {{job.param("channel"), job.param("intensity"),
                     job.param("pattern"), result.raw_bit_rate,
                     result.symbol_error, result.capacity,
                     static_cast<double>(result.backoffs),
                     static_cast<double>(result.rfms)}};
        };
        return spec;
    };
    auto summarize = [](const SweepResult &result) {
        // Average the four patterns per (channel, intensity), as the
        // paper does (§6.3).
        const auto capacity = groupMean(result, {0, 1}, 5);
        const auto error = groupMean(result, {0, 1}, 4);
        core::Table table({"channel", "intensity (%)", "error prob",
                           "capacity (Kbps)"});
        for (const auto &[key, cap] : capacity)
            table.addRow({channelName(key[0]), core::fmt(key[1], 0),
                          core::fmt(error.at(key), 3),
                          core::fmt(cap / 1000.0, 1)});
        return table.str() +
               "\npaper reference: PRAC 28.8 Kbps @1% noise, RFM 46.3 "
               "Kbps @1%; RFM degrades faster with noise.\n";
    };
    return makeFigure("capacity",
                      "Covert-channel capacity vs noise intensity "
                      "(PRAC and RFM channels)",
                      "Figs. 4 & 7", "fig_capacity_vs_noise.csv", 1, sweep,
                      summarize);
}

// ----------------------------------------------------- Figs. 5 and 8

Figure
appNoiseFigure()
{
    auto sweep = [](Scale scale, std::uint64_t) {
        SweepSpec spec;
        spec.axes = {channelAxis(),
                     enumAxis<Intensity>("app_intensity",
                                         {Intensity::kLow,
                                          Intensity::kMedium,
                                          Intensity::kHigh})};
        const std::size_t bytes = byScale<std::size_t>(scale, 4, 20, 100);
        spec.columns = {"channel", "app_intensity", "raw_bit_rate",
                        "error_probability", "capacity"};
        spec.job = [bytes](const Job &job) -> JobRows {
            core::ChannelRunSpec run;
            run.kind = asEnum<ChannelKind>(job.param("channel"));
            run.message_bytes = bytes;
            run.seed = job.seed;
            // One concurrent application per run (paper §6.3); the
            // first of the class is a stable, documented selection.
            run.background = {workload::appsWithIntensity(
                asEnum<Intensity>(job.param("app_intensity")))[0]};
            const auto sweep = core::runPatternSweep(run);
            return {{job.param("channel"), job.param("app_intensity"),
                     sweep.raw_bit_rate, sweep.error_probability,
                     sweep.capacity}};
        };
        return spec;
    };
    auto summarize = [](const SweepResult &result) {
        core::Table table({"channel", "intensity", "error prob",
                           "capacity (Kbps)"});
        for (const auto &row : result.rows)
            table.addRow({channelName(row[0]),
                          workload::intensityName(
                              asEnum<Intensity>(row[1])),
                          core::fmt(row[3], 3),
                          core::fmt(row[4] / 1000.0, 1)});
        return table.str() +
               "\npaper reference: PRAC 36.0/32.2/31.2 Kbps and RFM "
               "48.1/44.4/43.6 Kbps for L/M/H application noise.\n";
    };
    return makeFigure("appnoise",
                      "Covert channels vs concurrent SPEC-like "
                      "application noise (PRAC and RFM)",
                      "Figs. 5 & 8", "fig_capacity_vs_appnoise.csv", 1,
                      sweep, summarize);
}

// --------------------------------------------------- §6.3 (multibit)

Figure
multibitFigure()
{
    auto sweep = [](Scale scale, std::uint64_t) {
        SweepSpec spec;
        spec.axes = {{"levels", {2, 3, 4}}};
        const std::size_t bytes = byScale<std::size_t>(scale, 4, 16, 32);
        spec.columns = {"levels", "bits_per_symbol", "raw_bit_rate",
                        "symbol_error", "capacity"};
        spec.job = [bytes](const Job &job) -> JobRows {
            core::ChannelRunSpec run;
            run.kind = ChannelKind::kPrac;
            run.levels =
                static_cast<std::uint32_t>(job.param("levels"));
            run.message_bytes = bytes;
            // A random payload exercises all symbol values (§6.3).
            run.pattern = MessagePattern::kRandom;
            run.seed = job.seed;
            const auto result = core::runChannel(run);
            return {{job.param("levels"),
                     attack::bitsPerSymbol(run.levels),
                     result.raw_bit_rate, result.symbol_error,
                     result.capacity}};
        };
        return spec;
    };
    auto summarize = [](const SweepResult &result) {
        const char *names[] = {"binary", "ternary", "quaternary"};
        core::Table table({"encoding", "bits/symbol", "raw (Kbps)",
                           "sym error", "capacity (Kbps)"});
        for (const auto &row : result.rows)
            table.addRow({names[static_cast<int>(row[0]) - 2],
                          core::fmt(row[1], 2),
                          core::fmt(row[2] / 1000.0, 1),
                          core::fmt(row[3], 3),
                          core::fmt(row[4] / 1000.0, 1)});
        return table.str() +
               "\npaper reference: raw 39.0 / 61.7 / 76.8 Kbps; "
               "higher rates trade off noise margin (errors 0.00 / "
               "0.04 / 0.29).\n";
    };
    return makeFigure("multibit",
                      "Binary, ternary, and quaternary PRAC channel "
                      "encodings",
                      "§6.3 (multibit)", "tab_multibit_encodings.csv", 1,
                      sweep, summarize);
}

// ----------------------------------------------------------- Fig. 11

Figure
rfmCountFigure()
{
    auto sweep = [](Scale scale, std::uint64_t) {
        SweepSpec spec;
        spec.axes = {{"rfms_per_backoff", {4, 2, 1}},
                     {"intensity",
                      byScale(scale, std::vector<double>{1, 100},
                              std::vector<double>{1, 50, 100},
                              std::vector<double>{1, 25, 50, 75,
                                                  100})}};
        const std::size_t bytes = byScale<std::size_t>(scale, 4, 16, 50);
        spec.columns = {"rfms_per_backoff", "intensity",
                        "error_probability", "capacity"};
        spec.job = [bytes](const Job &job) -> JobRows {
            core::ChannelRunSpec run;
            run.kind = ChannelKind::kPrac;
            run.defense =
                core::attackSystem(defense::DefenseKind::kPrac).defense;
            run.defense->rfms_per_backoff = static_cast<std::uint32_t>(
                job.param("rfms_per_backoff"));
            run.filter_refresh = run.defense->rfms_per_backoff < 4;
            run.noise_sleep = stats::sleepForIntensity(
                job.param("intensity"), 200'000, 2'000'000);
            run.message_bytes = bytes;
            run.seed = job.seed;
            const auto sweep = core::runPatternSweep(run);
            return {{job.param("rfms_per_backoff"),
                     job.param("intensity"), sweep.error_probability,
                     sweep.capacity}};
        };
        return spec;
    };
    auto summarize = [](const SweepResult &result) {
        core::Table table({"RFMs/back-off", "intensity (%)",
                           "error prob", "capacity (Kbps)"});
        for (const auto &row : result.rows)
            table.addRow({core::fmt(row[0], 0), core::fmt(row[1], 0),
                          core::fmt(row[2], 3),
                          core::fmt(row[3] / 1000.0, 1)});
        return table.str() +
               "\npaper reference: 2-RFM 0.04 error / 29.95 Kbps at "
               "the lowest noise; 1-RFM worse everywhere (overlaps "
               "the refresh band).\n";
    };
    return makeFigure("rfm-count",
                      "PRAC channel vs recovery RFMs per back-off",
                      "Fig. 11", "fig_rfm_count_sensitivity.csv", 1, sweep,
                      summarize);
}

// ----------------------------------------------------------- Fig. 12

Figure
actionLatencyFigure()
{
    auto sweep = [](Scale scale, std::uint64_t) {
        SweepSpec spec;
        spec.axes = {{"latency_ns",
                      byScale(scale, std::vector<double>{0, 96, 250},
                              std::vector<double>{0, 5, 10, 40, 96,
                                                  192, 250},
                              std::vector<double>{0, 2, 5, 10, 20, 40,
                                                  96, 150, 192,
                                                  250})}};
        const std::size_t bytes = byScale<std::size_t>(scale, 4, 16, 50);
        spec.columns = {"latency_ns", "error_probability", "capacity"};
        spec.job = [bytes](const Job &job) -> JobRows {
            const auto ns =
                static_cast<std::uint64_t>(job.param("latency_ns"));
            core::ChannelRunSpec run;
            run.kind = ChannelKind::kPrac;
            run.defense =
                core::attackSystem(defense::DefenseKind::kPrac).defense;
            run.defense->rfms_per_backoff = 1;
            run.defense->backoff_rfm_latency = ns ? ns * 1000 : 1;
            // Model the preventive action as immediately following
            // the triggering activation (paper Fig. 12 abstraction).
            run.defense->aboact_override = 1'000;
            run.filter_refresh = true;
            // Detection threshold just above the conflict band: the
            // action partially overlaps the access's own precharge,
            // so the observed delta is sub-linear in L.
            run.backoff_min_override = 105'000 + ns * 150;
            run.message_bytes = bytes;
            run.seed = job.seed;
            const auto sweep = core::runPatternSweep(run);
            return {{job.param("latency_ns"), sweep.error_probability,
                     sweep.capacity}};
        };
        return spec;
    };
    auto summarize = [](const SweepResult &result) {
        core::Table table(
            {"latency (ns)", "error prob", "capacity (Kbps)"});
        for (const auto &row : result.rows)
            table.addRow({core::fmt(row[0], 0), core::fmt(row[1], 3),
                          core::fmt(row[2] / 1000.0, 1)});
        return table.str() +
               "\nvertical reference lines: BR=1 at 96 ns, BR=2 at "
               "192 ns (minimum refresh-based preventive action). "
               "Latencies at or above them never eliminate the "
               "channel (paper Fig. 12).\n";
    };
    return makeFigure("action-latency",
                      "Channel capacity vs preventive-action latency",
                      "Fig. 12", "fig_capacity_vs_action_latency.csv", 1,
                      sweep, summarize);
}

} // namespace

std::vector<Figure>
covertFigures()
{
    std::vector<Figure> figures;
    figures.push_back(latencyFigure());
    figures.push_back(backoffPeriodFigure());
    figures.push_back(messageFigure(ChannelKind::kPrac));
    figures.push_back(messageFigure(ChannelKind::kRfm));
    figures.push_back(bitrateFigure());
    figures.push_back(capacityFigure());
    figures.push_back(appNoiseFigure());
    figures.push_back(multibitFigure());
    figures.push_back(rfmCountFigure());
    figures.push_back(actionLatencyFigure());
    return figures;
}

} // namespace leaky::runner
