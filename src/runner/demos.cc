#include "runner/demos.hh"

#include <cstdio>
#include <vector>

#include "core/leakyhammer.hh"
#include "runner/figures_internal.hh"
#include "runner/flags.hh"

namespace leaky::runner {

namespace {

void
covertOneChannel(attack::ChannelKind kind, const std::string &message,
                 const dram::MappingSpec &mapping)
{
    const char *name =
        kind == attack::ChannelKind::kPrac ? "PRAC" : "RFM (PRFM)";
    core::banner(std::string(name) + " covert channel");

    const auto result = core::runMessageDemo(kind, message, mapping);

    std::printf("sent bits:     ");
    for (bool b : result.sent_bits)
        std::printf("%d", b ? 1 : 0);
    std::printf("\nreceived bits: ");
    for (bool b : result.received_bits)
        std::printf("%d", b ? 1 : 0);
    std::printf("\ndetections:    ");
    for (auto d : result.detections)
        std::printf("%u", d > 9 ? 9 : d);
    std::printf("\ndecoded text:  \"%s\"\n", result.decoded_text.c_str());

    std::size_t errors = 0;
    for (std::size_t i = 0; i < result.sent_bits.size(); ++i)
        errors += result.sent_bits[i] != result.received_bits[i];
    std::printf("bit errors:    %zu / %zu\n", errors,
                result.sent_bits.size());
}

bool
runQuickstart(int argc, char **argv, std::string *error)
{
    FlagParser parser;
    if (!parser.parse(argc, argv, error))
        return false;

    // Listing 1 against PRAC at the attack-study operating point
    // (NBO = 128): two rows in one bank, alternating loads, so every
    // access is a row-buffer conflict that charges the PRAC counters.
    const auto trace = core::runLatencyTrace(512);

    // Classify what the user-space loop observed.
    std::uint64_t by_class[5] = {0, 0, 0, 0, 0};
    for (const auto &sample : trace.samples)
        by_class[static_cast<int>(
            trace.classifier.classify(sample.latency))]++;

    std::printf("Observed %zu request latencies:\n", trace.samples.size());
    const char *names[5] = {"fast (row hit)", "row conflict",
                            "RFM window", "periodic refresh",
                            "PRAC back-off"};
    for (int c = 0; c < 5; ++c)
        std::printf("  %-18s %5llu\n", names[c],
                    static_cast<unsigned long long>(by_class[c]));

    std::printf("\nGround truth from the controller:\n");
    std::printf("  back-offs: %llu, refreshes: %llu, reads: %llu\n",
                static_cast<unsigned long long>(trace.backoffs),
                static_cast<unsigned long long>(trace.refreshes),
                static_cast<unsigned long long>(trace.reads_served));
    std::printf("\nFirst samples (ns): ");
    for (std::size_t i = 0; i < 12 && i < trace.samples.size(); ++i)
        std::printf("%llu ", static_cast<unsigned long long>(
                                 trace.samples[i].latency / 1000));
    std::printf("\n");
    return true;
}

bool
runCovert(int argc, char **argv, std::string *error)
{
    std::string message = "MICRO";
    std::string mapping = "row-interleaved";
    FlagParser parser;
    parser.addString("message", &message, "text to transmit");
    parser.addString("mapping", &mapping,
                     "address mapping (preset|order:...|xor:...)");
    if (!parser.parse(argc, argv, error))
        return false;
    if (message.empty()) {
        *error = "--message must be non-empty";
        return false;
    }
    // The system decodes through a validated MappingSpec: preset,
    // order: or xor: form (see docs/EXPERIMENTS.md).
    dram::MappingSpec spec;
    if (!dram::MappingSpec::tryParse(mapping, &spec, error)) {
        *error = "bad --mapping: " + *error;
        return false;
    }

    std::printf("address mapping: %s\n", spec.str().c_str());
    covertOneChannel(attack::ChannelKind::kPrac, message, spec);
    covertOneChannel(attack::ChannelKind::kRfm, message, spec);
    return true;
}

bool
runFingerprint(int argc, char **argv, std::string *error)
{
    std::uint32_t sites = 6, loads = 8;
    FlagParser parser;
    parser.addUint("sites", &sites, "number of websites");
    parser.addUint("loads", &loads, "loads per site");
    if (!parser.parse(argc, argv, error))
        return false;
    const auto max_sites =
        static_cast<std::uint32_t>(workload::websiteNames().size());
    if (sites < 2 || sites > max_sites) {
        *error = "--sites must be in [2, " + std::to_string(max_sites) +
                 "]";
        return false;
    }
    if (loads < 2) {
        *error = "--loads must be >= 2";
        return false;
    }

    core::banner("Website fingerprinting via PRAC back-offs");

    core::FingerprintSpec spec;
    spec.sites = sites;
    spec.loads_per_site = loads;
    spec.duration = 2 * sim::kMs;

    std::printf("collecting %u sites x %u loads (NRH = %u)...\n",
                spec.sites, spec.loads_per_site, spec.nrh);
    const SweepResult result = runSweep(collectionSpec(spec));

    // Show each site's first load.
    for (const auto &row : result.rows) {
        if (row[1] != 0)
            continue;
        std::printf("%-12s [%s] %3.0f back-offs\n",
                    workload::websiteNames()[
                        static_cast<std::size_t>(row[0])].c_str(),
                    backoffStrip(row).c_str(), row[2]);
    }

    // Train on most loads, classify the held-out ones.
    const auto data = datasetFromRows(result);
    const auto split = ml::stratifiedSplit(data, 0.25, 99);
    ml::RandomForest model;
    model.fit(split.train);
    const auto cm = ml::evaluate(model, split.test);

    std::printf("\nrandom forest on held-out loads: accuracy %.2f "
                "(chance %.3f)\n",
                cm.accuracy(), 1.0 / data.n_classes);
    std::printf("macro F1 %.2f, precision %.2f, recall %.2f\n",
                cm.macroF1(), cm.macroPrecision(), cm.macroRecall());
    return true;
}

bool
runMitigation(int argc, char **argv, std::string *error)
{
    std::uint32_t nrh = 256;
    FlagParser parser;
    parser.addUint("nrh", &nrh, "RowHammer threshold");
    if (!parser.parse(argc, argv, error))
        return false;
    if (nrh < 16 || nrh > 65536) {
        *error = "--nrh must be in [16, 65536]";
        return false;
    }

    core::banner("Defense comparison at NRH = " + std::to_string(nrh));

    const auto mixes = workload::makeMixes(3, 4, 7);
    constexpr std::uint64_t kInsts = 100'000;
    std::vector<core::PerfBaseline> baselines;
    for (const auto &mix : mixes)
        baselines.push_back(core::perfBaseline(mix, kInsts));
    core::Table table({"defense", "channel capacity", "normalized WS"});
    for (auto kind :
         {defense::DefenseKind::kPrac, defense::DefenseKind::kPrfm,
          defense::DefenseKind::kPracRiac, defense::DefenseKind::kFrRfm,
          defense::DefenseKind::kPracBank}) {
        // The `threshold` figure's cell: the receiver listens for the
        // defense's own preventive action.
        core::ChannelRunSpec run;
        run.kind = core::channelKindFor(kind);
        run.defense = sys::SystemConfig::paper(kind, nrh).defense;
        run.message_bytes = 20;
        const double capacity = core::runChannel(run).capacity;
        double ws = 0.0;
        for (std::size_t m = 0; m < mixes.size(); ++m)
            ws += core::normalizedWs(kind, nrh, mixes[m], baselines[m],
                                     kInsts);
        ws /= static_cast<double>(mixes.size());
        table.addRow({defense::defenseName(kind),
                      core::fmtKbps(capacity), core::fmt(ws, 3)});
    }
    std::printf("%s", table.str().c_str());
    std::printf("\nFR-RFM closes the channel completely; at low NRH its "
                "performance cost explodes, which is the paper's central "
                "trade-off (§11, Fig. 13).\n");
    return true;
}

} // namespace

const std::vector<Demo> &
demos()
{
    static const std::vector<Demo> table = {
        {"quickstart", "", "Listing-1 latency probe, Fig. 2 bands",
         runQuickstart},
        {"covert", "[--message <text>] [--mapping <spec>]",
         "transmit text over both covert channels", runCovert},
        {"fingerprint", "[--sites <n>] [--loads <n>]",
         "website fingerprinting + classifier", runFingerprint},
        {"mitigation", "[--nrh <n>]",
         "security/performance trade-off per defense", runMitigation},
    };
    return table;
}

} // namespace leaky::runner
