#include "attack/covert.hh"

#include <algorithm>
#include <memory>

#include "attack/dram_addr.hh"
#include "attack/message.hh"
#include "sim/logging.hh"
#include "stats/channel_metrics.hh"

namespace leaky::attack {

// ---------------------------------------------------------------- sender

CovertSender::CovertSender(sys::System &system, const CovertConfig &cfg)
    : system_(system), cfg_(cfg), load_(system)
{
    LEAKY_ASSERT(cfg_.sender_addr != 0, "sender address not configured");
    LEAKY_ASSERT(cfg_.sender_gaps.size() + 1 >= cfg_.levels,
                 "need a sender gap per non-zero symbol");
}

void
CovertSender::transmit(std::vector<std::uint8_t> symbols, Tick epoch)
{
    symbols_ = std::move(symbols);
    epoch_ = epoch;
    const Tick now = system_.now();
    LEAKY_ASSERT(epoch_ >= now, "epoch in the past");
    system_.schedule(epoch_ - now, [this] { windowStart(0); });
}

void
CovertSender::windowStart(std::size_t index)
{
    if (index >= symbols_.size())
        return;
    window_end_ = epoch_ + (index + 1) * cfg_.window;
    system_.schedule(window_end_ - system_.now(),
                   [this, index] { windowStart(index + 1); });

    const std::uint8_t symbol = symbols_[index];
    loop_id_ += 1; // Invalidate any loop still draining in flight.
    seq_pos_ = 0;  // Fuzz patterns restart at the head every window.
    if (symbol == 0) {
        active_ = false; // Idle window transmits logic-0.
        return;
    }
    gap_ = cfg_.sender_gaps[std::min<std::size_t>(
        symbol - 1, cfg_.sender_gaps.size() - 1)];
    active_ = true;
    load_.restart();
    accessLoop();
}

void
CovertSender::accessLoop()
{
    if (!active_ || system_.now() + kLoopOverhead >= window_end_)
        return;
    const std::uint64_t id = loop_id_;
    load_.next(
        gap_,
        [this, id]() -> std::optional<std::uint64_t> {
            if (id != loop_id_ || !active_ || system_.now() >= window_end_)
                return std::nullopt;
            if (cfg_.sender_sequence.empty())
                return (cfg_.sender_addr2 != 0 && (accesses_ & 1))
                           ? cfg_.sender_addr2
                           : cfg_.sender_addr;
            const std::uint64_t addr = cfg_.sender_sequence[seq_pos_];
            seq_pos_ = (seq_pos_ + 1) % cfg_.sender_sequence.size();
            return addr;
        },
        [this, id](Tick latency) {
            accesses_ += 1;
            if (id != loop_id_)
                return;
            // After its own back-off observation the sender sleeps for
            // the rest of the window (paper §6.3) -- the bit is already
            // delivered and more activations would waste counter state.
            if (cfg_.kind == ChannelKind::kPrac &&
                cfg_.classifier.classify(latency) ==
                    LatencyClass::kBackoff) {
                active_ = false;
                return;
            }
            accessLoop();
        });
}

// -------------------------------------------------------------- receiver

CovertReceiver::CovertReceiver(sys::System &system,
                               const CovertConfig &cfg)
    : system_(system), cfg_(cfg), load_(system)
{
    LEAKY_ASSERT(cfg_.receiver_addr != 0,
                 "receiver address not configured");
}

void
CovertReceiver::listen(std::size_t n_symbols, Tick epoch,
                       sim::SmallFn on_done)
{
    n_symbols_ = n_symbols;
    epoch_ = epoch;
    on_done_ = std::move(on_done);
    decoded_.clear();
    backoff_counts_.clear();
    detections_.clear();
    decoded_.reserve(n_symbols); // Decoding a window never allocates.
    backoff_counts_.reserve(n_symbols);
    detections_.reserve(n_symbols);
    const Tick now = system_.now();
    LEAKY_ASSERT(epoch_ >= now, "epoch in the past");
    system_.schedule(epoch_ - now, [this] { windowStart(0); });
}

void
CovertReceiver::windowStart(std::size_t index)
{
    if (index > 0)
        finalizeWindow();
    if (index >= n_symbols_) {
        listening_ = false;
        if (on_done_)
            on_done_();
        return;
    }
    window_end_ = epoch_ + (index + 1) * cfg_.window;
    access_count_ = 0;
    backoffs_seen_ = 0;
    count_at_backoff_ = 0;
    rfm_events_ = 0;
    system_.schedule(window_end_ - system_.now(),
                   [this, index] { windowStart(index + 1); });

    load_.restart();
    if (!listening_) {
        listening_ = true;
        accessLoop();
    }
}

void
CovertReceiver::accessLoop()
{
    if (!listening_ || system_.now() + kLoopOverhead >= window_end_) {
        listening_ = false;
        return;
    }
    load_.next(
        0,
        [this]() -> std::optional<std::uint64_t> {
            if (!listening_)
                return std::nullopt;
            return cfg_.receiver_addr;
        },
        [this](Tick latency) { onLatency(latency); });
}

void
CovertReceiver::onLatency(Tick latency)
{
    access_count_ += 1;
    // §10.1 refresh filter: drop events inside the calibrated
    // periodic-refresh blackout.
    if (cfg_.refresh_blackout) {
        constexpr Tick kBlackoutPre = 150'000; ///< Drain lead-in.
        const Tick phase = system_.now() % cfg_.refi;
        if (phase < cfg_.blackout_post ||
            phase > cfg_.refi - kBlackoutPre) {
            accessLoop();
            return;
        }
    }
    const LatencyClass cls = cfg_.classifier.classify(latency);
    if (cfg_.kind == ChannelKind::kPrac) {
        if (cls == LatencyClass::kBackoff) {
            backoffs_seen_ += 1;
            if (backoffs_seen_ == 1) {
                count_at_backoff_ = access_count_;
                // Bit determined: sleep until the window ends to
                // avoid incrementing counters further (§6.3).
                listening_ = false;
                return;
            }
        }
    } else {
        if (cls == LatencyClass::kRfm)
            rfm_events_ += 1;
    }
    accessLoop();
}

std::uint8_t
CovertReceiver::decodeSymbol() const
{
    if (cfg_.kind == ChannelKind::kRfm)
        return rfm_events_ >= cfg_.trecv ? 1 : 0;
    if (backoffs_seen_ == 0)
        return 0;
    if (cfg_.levels == 2)
        return 1;
    // Multibit: lower access count at the back-off means a faster
    // sender, i.e., a higher symbol.
    std::uint8_t symbol = static_cast<std::uint8_t>(cfg_.levels - 1);
    for (std::size_t i = 0; i < cfg_.count_cuts.size(); ++i) {
        if (count_at_backoff_ >= cfg_.count_cuts[i])
            symbol = static_cast<std::uint8_t>(cfg_.levels - 2 - i);
    }
    return std::max<std::uint8_t>(symbol, 1);
}

void
CovertReceiver::finalizeWindow()
{
    decoded_.push_back(decodeSymbol());
    backoff_counts_.push_back(backoffs_seen_ ? count_at_backoff_ : 0);
    detections_.push_back(cfg_.kind == ChannelKind::kPrac ? backoffs_seen_
                                                          : rfm_events_);
    // Wake the access loop again for the next window if it went to
    // sleep after an early decode.
    if (!listening_) {
        listening_ = true;
        load_.restart();
        accessLoop();
    }
}

// ----------------------------------------------------------- harness

CovertConfig
makeChannelConfig(sys::System &system, ChannelKind kind,
                  std::uint32_t levels, std::uint32_t channel)
{
    LEAKY_ASSERT(channel < system.channels(),
                 "covert channel targets memory channel %u of %u",
                 channel, system.channels());
    CovertConfig cfg;
    cfg.kind = kind;
    cfg.levels = levels;
    cfg.sender_channel = channel;
    cfg.receiver_channel = channel;
    cfg.window = kind == ChannelKind::kPrac ? 25 * sim::kUs
                                            : 20 * sim::kUs;
    const auto &ctrl_cfg = system.controller(channel).config();
    cfg.classifier = LatencyClassifier::forTiming(
        ctrl_cfg.dram.timing, ctrl_cfg.rfms_per_backoff);
    // Sender and receiver rows share bank (rank 0, bg 0, bank 0) of
    // the target channel; any same-bank pair works (§5.2).
    cfg.sender_addr = rowAddress(system.mapper(), channel, 0, 0, 0, 1000);
    cfg.receiver_addr = rowAddress(system.mapper(), channel, 0, 0, 0, 2000);
    // Multibit pacing: the back-off needs ~2 x NBO activations, and
    // activations accrue at ~2 per sender access, so the slowest symbol
    // must still fit ~NBO sender accesses in one window. Gaps below
    // keep symbol 1 at ~21 us-to-back-off in a 25 us window.
    if (levels == 3) {
        cfg.sender_gaps = {70'000, 0};
    } else if (levels == 4) {
        cfg.sender_gaps = {80'000, 35'000, 0};
    } else {
        cfg.sender_gaps = {0};
    }
    return cfg;
}

namespace {

/** Eq.-1 metrics of (@p sent, @p received) at @p window / @p levels,
 *  ground truth from the channel-scoped stats @p view. */
ChannelResult
collectChannelResult(Tick window, std::uint32_t levels,
                     std::vector<std::uint8_t> sent,
                     std::vector<std::uint8_t> received,
                     const ctrl::CtrlStats &view)
{
    ChannelResult result;
    result.sent = std::move(sent);
    result.received = std::move(received);
    result.symbol_error =
        stats::symbolErrorRate(result.sent, result.received);
    result.raw_bit_rate =
        stats::rawBitRate(window, bitsPerSymbol(levels));
    result.capacity =
        stats::channelCapacity(result.raw_bit_rate, result.symbol_error);
    result.backoffs = view.backoffs;
    result.rfms = view.rfms;
    result.targeted_refreshes = view.targeted_refreshes;
    result.counter_fetches = view.counter_fetches;
    return result;
}

/** The channel fields are the ground-truth contract: they must agree
 *  with where the configured addresses actually decode, or the
 *  result's stats view reads the wrong channel. */
void
checkChannels(const sys::System &system, const CovertConfig &cfg)
{
    LEAKY_ASSERT(system.mapper().decode(cfg.sender_addr).channel ==
                     cfg.sender_channel,
                 "sender_addr does not decode onto sender_channel %u",
                 cfg.sender_channel);
    LEAKY_ASSERT(system.mapper().decode(cfg.receiver_addr).channel ==
                     cfg.receiver_channel,
                 "receiver_addr does not decode onto receiver_channel "
                 "%u",
                 cfg.receiver_channel);
    LEAKY_ASSERT(cfg.sender_addr2 == 0 ||
                     system.mapper().decode(cfg.sender_addr2).channel ==
                         cfg.sender_channel,
                 "sender_addr2 does not decode onto sender_channel %u",
                 cfg.sender_channel);
    for (const std::uint64_t addr : cfg.sender_sequence)
        LEAKY_ASSERT(system.mapper().decode(addr).channel ==
                         cfg.sender_channel,
                     "sender_sequence entry does not decode onto "
                     "sender_channel %u",
                     cfg.sender_channel);
}

} // namespace

std::vector<ChannelResult>
runCovertChannel(sys::System &system, const std::vector<CovertConfig> &cfgs,
                 const std::vector<std::uint8_t> &symbols)
{
    LEAKY_ASSERT(!cfgs.empty(), "need at least one sender/receiver pair");
    std::vector<std::unique_ptr<CovertSender>> senders;
    std::vector<std::unique_ptr<CovertReceiver>> receivers;
    Tick window = 0;
    for (const CovertConfig &cfg : cfgs) {
        checkChannels(system, cfg);
        senders.push_back(std::make_unique<CovertSender>(system, cfg));
        receivers.push_back(std::make_unique<CovertReceiver>(system, cfg));
        window = std::max(window, cfg.window);
    }

    const Tick epoch = system.now() + 2 * sim::kUs;
    std::size_t done = 0;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        senders[i]->transmit(symbols, epoch);
        receivers[i]->listen(symbols.size(), epoch, [&done] { done += 1; });
    }

    const Tick deadline =
        epoch + (symbols.size() + 2) * window + 10 * sim::kUs;
    while (done < cfgs.size() && system.now() < deadline)
        system.run(window);
    LEAKY_ASSERT(done == cfgs.size(),
                 "%zu of %zu receivers finished before the deadline", done,
                 cfgs.size());

    // Ground truth from the channel each receiver listens on — under
    // channels > 1 an implicit channel-0 read would silently drop
    // every preventive action on the other channels.
    std::vector<ChannelResult> results;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        results.push_back(collectChannelResult(
            cfgs[i].window, cfgs[i].levels, symbols,
            receivers[i]->decoded(),
            system.stats(cfgs[i].receiver_channel)));
        results.back().detections = receivers[i]->detections();
    }
    return results;
}

std::vector<std::uint32_t>
calibrateCuts(const sys::SystemConfig &sys_cfg, CovertConfig cfg)
{
    constexpr std::uint32_t kRepsPerSymbol = 8;
    if (cfg.levels <= 2)
        return {};
    std::vector<double> mean_counts;
    for (std::uint32_t s = 1; s < cfg.levels; ++s) {
        sys::System system(sys_cfg);
        std::vector<std::uint8_t> ramp(kRepsPerSymbol,
                                       static_cast<std::uint8_t>(s));
        CovertConfig train = cfg;
        train.levels = 2; // Decode irrelevant; we only need counts.
        CovertSender sender(system, train);
        CovertReceiver receiver(system, train);
        const Tick epoch = system.now() + 2 * sim::kUs;
        sender.transmit(ramp, epoch);
        bool done = false;
        receiver.listen(ramp.size(), epoch, [&done] { done = true; });
        while (!done)
            system.run(train.window);
        double sum = 0.0;
        std::uint32_t n = 0;
        for (auto c : receiver.backoffCounts()) {
            if (c > 0) {
                sum += c;
                n += 1;
            }
        }
        mean_counts.push_back(n ? sum / n : 0.0);
    }
    // Cut points at midpoints between adjacent symbols' mean counts.
    // mean_counts[0] belongs to symbol 1 (slowest, highest count).
    std::vector<std::uint32_t> cuts;
    for (std::size_t i = 0; i + 1 < mean_counts.size(); ++i) {
        cuts.push_back(static_cast<std::uint32_t>(
            (mean_counts[i] + mean_counts[i + 1]) / 2.0));
    }
    std::sort(cuts.begin(), cuts.end());
    return cuts;
}

} // namespace leaky::attack
