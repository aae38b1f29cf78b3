#include "legs.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "cache/read_cache.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace perfbench {

using namespace ida;

namespace {

/** Results of the timed loops land here so they cannot be elided. */
volatile std::uint64_t gSink = 0;

/** Repeat a leg and keep its median: legs are short and share a core. */
double
medianOf(int reps, const std::function<double()> &leg)
{
    std::vector<double> v;
    for (int i = 0; i < reps; ++i)
        v.push_back(leg());
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/**
 * Self-rescheduling actors: each event draws its next delay and
 * schedules itself again until the budget runs out, so the queue stays
 * at the actor count. Captures are 32 bytes, the size class of the
 * device's completion chains.
 */
class Actors
{
  public:
    Actors(std::uint64_t budget, std::uint64_t max_delay)
        : remaining_(budget), maxDelay_(std::max<std::uint64_t>(
                                  max_delay, 1))
    {
    }

    void
    step(std::uint64_t rng, std::uint64_t a, std::uint64_t b)
    {
        if (remaining_ == 0) {
            sink_ += a ^ b;
            return;
        }
        --remaining_;
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const std::uint64_t delay = 1 + (rng >> 11) % maxDelay_;
        q_.scheduleAfter(sim::Time{delay},
                         [this, rng, a, b] { step(rng, b, a + rng); });
    }

    sim::EventQueue &queue() { return q_; }
    std::uint64_t sink() const { return sink_; }

  private:
    sim::EventQueue q_;
    std::uint64_t remaining_;
    std::uint64_t maxDelay_;
    std::uint64_t sink_ = 0;
};

} // namespace

double
kernelNsPerEvent(const LegInputs &in, std::uint64_t seed)
{
    const auto depth = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::llround(in.pendingMean)));
    // With `depth` events pending and one popped per step, a mean delay
    // of depth * (ns per event) keeps simulated time moving as fast as
    // it did in the workload.
    const auto maxDelay = static_cast<std::uint64_t>(
        2.0 * static_cast<double>(depth) * in.simNsPerEvent);
    const std::uint64_t events =
        std::max<std::uint64_t>(2'000'000, 8 * depth);
    return medianOf(3, [&] {
        Actors actors(events, maxDelay);
        for (std::uint64_t a = 0; a < depth; ++a)
            actors.step(seed + a * 0x9e3779b97f4a7c15ull, a, seed);
        const double cpu0 = cpuSeconds();
        actors.queue().run();
        const double cpu = cpuSeconds() - cpu0;
        gSink = actors.sink();
        return 1e9 * cpu / static_cast<double>(actors.queue().executed());
    });
}

double
cacheLookupNs(const LegInputs &in)
{
    if (in.pageOps.empty())
        return 0.0;
    constexpr flash::SectorMask kFull = 0xffff;
    const std::size_t ops =
        std::max<std::size_t>(2'000'000, in.pageOps.size());
    return medianOf(3, [&] {
        cache::ReadCacheConfig cfg;
        cfg.capacityPages = in.cacheCapacity;
        cache::ReadCache rc(cfg);
        std::uint64_t sink = 0;
        const double cpu0 = cpuSeconds();
        for (std::size_t i = 0; i < ops; ++i) {
            const std::uint64_t op = in.pageOps[i % in.pageOps.size()];
            const flash::Lpn lpn = op >> 1;
            if (op & 1) {
                rc.invalidate(lpn, kFull);
            } else {
                const flash::SectorMask m = rc.lookup(lpn);
                sink += m;
                if (m != kFull)
                    rc.insert(lpn, kFull);
            }
        }
        const double cpu = cpuSeconds() - cpu0;
        gSink = sink;
        return 1e9 * cpu / static_cast<double>(ops);
    });
}

double
eccDrawNs(const LegInputs &in, std::uint64_t seed)
{
    if (in.wear.empty())
        return 0.0;
    constexpr std::size_t kDraws = 2'000'000;
    return medianOf(3, [&] {
        sim::Rng rng(seed);
        std::uint64_t sink = 0;
        const double cpu0 = cpuSeconds();
        for (std::size_t i = 0; i < kDraws; ++i) {
            const auto &[pe, age] = in.wear[i % in.wear.size()];
            sink += static_cast<std::uint64_t>(
                in.ecc.retryRounds(pe, age, rng));
        }
        const double cpu = cpuSeconds() - cpu0;
        gSink = sink;
        return 1e9 * cpu / static_cast<double>(kDraws);
    });
}

} // namespace perfbench
