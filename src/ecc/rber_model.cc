#include "ecc/rber_model.hh"

#include <algorithm>
#include <cmath>

#include "sim/log.hh"

namespace ida::ecc {

RberModel::RberModel(const RberConfig &cfg) : cfg_(cfg)
{
    if (cfg_.baseRber <= 0.0 || cfg_.hardDecisionLimit <= 0.0)
        sim::fatal("RberModel: base RBER and decode limit must be > 0");
    if (cfg_.perRoundGain <= 1.0)
        sim::fatal("RberModel: per-round gain must exceed 1");
    if (cfg_.peScale <= 0.0 || cfg_.retentionScale <= sim::Time{})
        sim::fatal("RberModel: scales must be positive");
    if (cfg_.maxExtraRounds < 0)
        sim::fatal("RberModel: maxExtraRounds must be >= 0");

    invLogGain_ = 1.0 / std::log(cfg_.perRoundGain);
    roundsOffset_ =
        std::log(cfg_.hardDecisionLimit / cfg_.baseRber) * invLogGain_;
    peMax_ = kSpanScales * cfg_.peScale;
    retMax_ =
        kSpanScales * static_cast<double>(cfg_.retentionScale.count());
    peStepInv_ = static_cast<double>(kKnots - 1) / peMax_;
    retStepInv_ = static_cast<double>(kKnots - 1) / retMax_;
    for (int i = 0; i < kKnots; ++i) {
        const double frac =
            static_cast<double>(i) / static_cast<double>(kKnots - 1);
        wearK_[i] = cfg_.wearExponent *
                        std::log1p(frac * kSpanScales) * invLogGain_ -
                    roundsOffset_;
        retK_[i] = cfg_.retentionExponent *
                   std::log1p(frac * kSpanScales) * invLogGain_;
    }
}

double
RberModel::rber(std::uint32_t pe_cycles, sim::Time retention) const
{
    if (retention < sim::Time{})
        retention = sim::Time{};
    const double wear = std::pow(
        1.0 + static_cast<double>(pe_cycles) / cfg_.peScale,
        cfg_.wearExponent);
    const double ret = std::pow(
        1.0 + static_cast<double>(retention.count()) /
                  static_cast<double>(cfg_.retentionScale.count()),
        cfg_.retentionExponent);
    return cfg_.baseRber * wear * ret;
}

int
RberModel::roundsNeeded(double rber) const
{
    if (rber <= cfg_.hardDecisionLimit)
        return 0;
    const double k = std::log(rber / cfg_.hardDecisionLimit) /
                     std::log(cfg_.perRoundGain);
    return std::min(cfg_.maxExtraRounds,
                    static_cast<int>(std::ceil(k)));
}

double
RberModel::fractionalRoundsExact(double pe, double ticks) const
{
    // A read reaches this only through fractionalRounds()' off-table
    // fallback, for an age past the knot table.
    const double scale =
        static_cast<double>(cfg_.retentionScale.count());
    // ida-lint: allow(IDA009) off-table fallback only
    const double wear = cfg_.wearExponent * std::log1p(pe / cfg_.peScale);
    // ida-lint: allow(IDA009) off-table fallback only
    const double ret = cfg_.retentionExponent * std::log1p(ticks / scale);
    return (wear + ret) * invLogGain_ - roundsOffset_;
}

double
RberModel::fractionalRounds(std::uint32_t pe_cycles,
                            sim::Time retention) const
{
    const double pe = static_cast<double>(pe_cycles);
    const double ticks = std::max(
        0.0, static_cast<double>(retention.count()));
    if (pe > peMax_ || ticks > retMax_)
        return fractionalRoundsExact(pe, ticks);
    const double pi = pe * peStepInv_;
    const double tj = ticks * retStepInv_;
    const int i = std::min(static_cast<int>(pi), kKnots - 2);
    const int j = std::min(static_cast<int>(tj), kKnots - 2);
    const double fi = pi - static_cast<double>(i);
    const double fj = tj - static_cast<double>(j);
    const double wear = wearK_[i] + fi * (wearK_[i + 1] - wearK_[i]);
    const double ret = retK_[j] + fj * (retK_[j + 1] - retK_[j]);
    return wear + ret;
}

double
RberModel::peKnot(int i) const
{
    return peMax_ * static_cast<double>(i) /
           static_cast<double>(kKnots - 1);
}

sim::Time
RberModel::retentionKnot(int j) const
{
    return sim::Time{static_cast<std::int64_t>(
        retMax_ * static_cast<double>(j) /
        static_cast<double>(kKnots - 1))};
}

int
RberModel::sampleRounds(std::uint32_t pe_cycles, sim::Time retention,
                        sim::Rng &rng) const
{
    // Probabilistic rounding of the fractional round requirement:
    // pages sitting between sensing thresholds sometimes decode a
    // round early (read-to-read charge variation).
    const double k = fractionalRounds(pe_cycles, retention);
    if (k <= 0.0)
        return 0;
    const int lo = static_cast<int>(k);
    const int rounds = lo + (rng.chance(k - static_cast<double>(lo)) ? 1
                                                                     : 0);
    return std::min(rounds, cfg_.maxExtraRounds);
}

sim::Time
RberModel::retryOnsetRetention(std::uint32_t pe_cycles) const
{
    // Solve rber(pe, t) = hardDecisionLimit for t.
    const double wear = std::pow(
        1.0 + static_cast<double>(pe_cycles) / cfg_.peScale,
        cfg_.wearExponent);
    const double target = cfg_.hardDecisionLimit / (cfg_.baseRber * wear);
    if (target <= 1.0)
        return sim::Time{}; // already beyond the limit at zero retention
    const double x =
        std::pow(target, 1.0 / cfg_.retentionExponent) - 1.0;
    return x * cfg_.retentionScale;
}

} // namespace ida::ecc
