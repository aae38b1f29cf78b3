/**
 * @file
 * Golden dispatch-order test for the event kernel.
 *
 * The pooled 4-ary-heap EventQueue replaced a std::priority_queue
 * kernel whose observable contract was (when, seq) lexicographic
 * dispatch — strict time order, FIFO within a tick, past-time schedules
 * clamped to now(). Simulation results are bit-for-bit downstream of
 * this order, so it must survive kernel rewrites exactly.
 *
 * The test replays a pseudorandom, self-expanding event storm through
 * the real EventQueue and through a deliberately naive reference model
 * (linear scan for the (when, seq) minimum — the old semantics spelled
 * out), logging every dispatch as text. The two logs must match
 * byte for byte.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace ida::sim {
namespace {

/** Deterministic per-event behavior, shared by both sides. */
struct StormRules
{
    std::uint32_t cap;

    static std::uint32_t
    mix(std::uint32_t x)
    {
        x ^= x >> 16;
        x *= 0x7feb352du;
        x ^= x >> 15;
        x *= 0x846ca68bu;
        x ^= x >> 16;
        return x;
    }

    /**
     * Child delays spawned by event @p id. Deliberately nasty: same-tick
     * children (delay 0), past-time children (delay -3), and ties from
     * unrelated events colliding on the same tick.
     */
    std::vector<Time>
    childDelays(std::uint32_t id) const
    {
        const std::uint32_t r = mix(id + 1);
        std::vector<Time> out;
        // 1-2 children: supercritical, so the storm always reaches the
        // id cap instead of fizzling out early.
        const std::uint32_t n = 1 + (r & 1);
        for (std::uint32_t k = 0; k < n; ++k) {
            const std::uint32_t d = (r >> (8 + 6 * k)) % 9;
            out.push_back(Time{d} - Time{3}); // -3..5
        }
        return out;
    }
};

/** One dispatched event, as a log line: "<id>@<when>\n". */
void
logLine(std::string &log, std::uint32_t id, Time when)
{
    log += std::to_string(id);
    log += '@';
    log += std::to_string(when.count());
    log += '\n';
}

/**
 * Reference model: the old kernel's semantics with no data structure at
 * all — events in a flat vector, dispatch = linear scan for the
 * smallest (when, seq), past-time schedule = clamp to now.
 */
std::string
referenceStorm(const StormRules &rules)
{
    struct Ev
    {
        Time when;
        std::uint64_t seq;
        std::uint32_t id;
    };
    std::string log;
    std::vector<Ev> pending;
    std::uint64_t nextSeq = 0;
    std::uint32_t nextId = 0;
    Time now{};

    for (std::uint32_t i = 0; i < 8; ++i)
        pending.push_back(Ev{static_cast<Time>(i % 3), nextSeq++, nextId++});

    while (!pending.empty()) {
        std::size_t best = 0;
        for (std::size_t j = 1; j < pending.size(); ++j) {
            const Ev &a = pending[j];
            const Ev &b = pending[best];
            if (a.when < b.when || (a.when == b.when && a.seq < b.seq))
                best = j;
        }
        const Ev ev = pending[best];
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(best));
        now = ev.when;
        logLine(log, ev.id, now);
        for (const Time d : rules.childDelays(ev.id)) {
            if (nextId >= rules.cap)
                break;
            Time when = now + d;
            if (when < now)
                when = now; // the past-time clamp
            pending.push_back(Ev{when, nextSeq++, nextId++});
        }
    }
    return log;
}

/** The same storm through the real kernel. */
class KernelStorm
{
  public:
    explicit KernelStorm(const StormRules &rules) : rules_(rules)
    {
        // The storm spawns negative delays on purpose to exercise the
        // clamp path, which the reference model mirrors arithmetically;
        // audit builds default to the Panic policy, so select Clamp.
        q_.setPastSchedulePolicy(PastSchedulePolicy::Clamp);
    }

    std::string
    run()
    {
        for (std::uint32_t i = 0; i < 8; ++i)
            spawn(static_cast<Time>(i % 3));
        q_.run();
        return std::move(log_);
    }

    /** Like run(), but dragged through runUntil in small steps. */
    std::string
    runStepped(Time step)
    {
        for (std::uint32_t i = 0; i < 8; ++i)
            spawn(static_cast<Time>(i % 3));
        Time limit{};
        while (!q_.empty()) {
            limit += step;
            q_.runUntil(limit);
        }
        return std::move(log_);
    }

    std::uint64_t pastSchedules() const { return q_.pastSchedules(); }

  private:
    void
    spawn(Time when)
    {
        const std::uint32_t id = nextId_++;
        q_.schedule(when, [this, id] { fire(id); });
    }

    void
    fire(std::uint32_t id)
    {
        logLine(log_, id, q_.now());
        for (const Time d : rules_.childDelays(id)) {
            if (nextId_ >= rules_.cap)
                break;
            // Negative delays exercise the past-time clamp in the real
            // kernel; the reference model clamps arithmetically.
            spawn(q_.now() + d);
        }
    }

    StormRules rules_;
    EventQueue q_;
    std::string log_;
    std::uint32_t nextId_ = 0;
};

TEST(EventOrderGolden, MatchesReferenceByteForByte)
{
    const StormRules rules{5000};
    const std::string expected = referenceStorm(rules);
    const std::string actual = KernelStorm(rules).run();
    // Sanity: the storm is big enough to mean something and contains
    // same-tick ties (distinct ids dispatched at one timestamp).
    EXPECT_GT(expected.size(), 20'000u);
    ASSERT_EQ(actual, expected);
}

TEST(EventOrderGolden, RunUntilSteppingDoesNotReorder)
{
    const StormRules rules{2000};
    const std::string expected = referenceStorm(rules);
    EXPECT_EQ(KernelStorm(rules).runStepped(Time{1}), expected);
    EXPECT_EQ(KernelStorm(rules).runStepped(Time{7}), expected);
}

TEST(EventOrderGolden, PastSchedulesAreCountedAndClamped)
{
    const StormRules rules{5000};
    KernelStorm storm(rules);
    const std::string log = storm.run();
    // The rules spawn negative delays regularly; every one must have
    // been clamped (order already checked against the reference) and
    // counted.
    EXPECT_GT(storm.pastSchedules(), 0u);

    EventQueue q;
    q.setPastSchedulePolicy(PastSchedulePolicy::Clamp);
    EXPECT_EQ(q.pastSchedules(), 0u);
    q.schedule(Time{100}, [&q] {
        q.schedule(Time{10}, [] {}); // in the past once now == 100
    });
    q.run();
    EXPECT_EQ(q.pastSchedules(), 1u);
    EXPECT_EQ(q.now(), Time{100});
}

/**
 * The reference model with reserved seqs: a flat vector scanned for the
 * smallest (when, seq), where a seq is either taken at schedule time or
 * reserved earlier and supplied later.
 */
class ReferenceQueue
{
  public:
    Time now() const { return now_; }
    std::uint64_t reserveSeq() { return nextSeq_++; }

    void
    schedule(Time when, std::function<void()> cb)
    {
        schedule(when, nextSeq_++, std::move(cb));
    }

    void
    schedule(Time when, std::uint64_t seq, std::function<void()> cb)
    {
        pending_.push_back(Ev{std::max(when, now_), seq, std::move(cb)});
    }

    void
    runUntil(Time limit)
    {
        for (;;) {
            std::size_t best = pending_.size();
            for (std::size_t j = 0; j < pending_.size(); ++j) {
                if (best == pending_.size() ||
                    pending_[j].when < pending_[best].when ||
                    (pending_[j].when == pending_[best].when &&
                     pending_[j].seq < pending_[best].seq))
                    best = j;
            }
            if (best == pending_.size() || pending_[best].when > limit)
                break;
            Ev ev = std::move(pending_[best]);
            pending_.erase(pending_.begin() +
                           static_cast<std::ptrdiff_t>(best));
            now_ = ev.when;
            ev.cb();
        }
        now_ = std::max(now_, limit);
    }

    void run() { runUntil(Time{std::numeric_limits<std::int64_t>::max()}); }

    bool validateHeap(std::string *) const { return true; }

  private:
    struct Ev
    {
        Time when;
        std::uint64_t seq;
        std::function<void()> cb;
    };
    std::vector<Ev> pending_;
    std::uint64_t nextSeq_ = 0;
    Time now_{};
};

/**
 * A seeded script of plain schedules, seq reservations, schedules under
 * a reserved seq (some from inside a callback at its own tick, as the
 * SSD's arrival FIFO does) and runUntil() steps, with delays from zero
 * to past 2^62 ticks. Returns the dispatch log; fails the test if the
 * queue's structure breaks after any step.
 */
template <typename Q>
std::string
reservedSeqScript(std::uint64_t seed)
{
    Q q;
    Rng rng(seed);
    std::string log;
    std::vector<std::uint64_t> reserved;
    std::uint32_t nextId = 0;

    const auto delay = [&rng]() -> Time {
        const std::uint64_t kind = rng.uniformInt(0, 19);
        if (kind < 6)
            return Time{0};
        if (kind < 12)
            return Time{static_cast<std::int64_t>(rng.uniformInt(1, 20))};
        if (kind < 16)
            return Time{static_cast<std::int64_t>(
                rng.uniformInt(1, std::uint64_t{1} << 20))};
        if (kind < 19)
            return Time{std::int64_t{1}
                        << rng.uniformInt(26, 50)};
        return Time{(std::int64_t{1} << 62) +
                    static_cast<std::int64_t>(rng.uniformInt(0, 3))};
    };
    std::function<void(std::uint32_t)> fire;
    const auto spawn = [&](Time when) {
        const std::uint32_t id = nextId++;
        q.schedule(when, [&fire, id] { fire(id); });
    };
    const auto spawnReserved = [&](Time when) {
        const auto k = static_cast<std::size_t>(
            rng.uniformInt(0, reserved.size() - 1));
        const std::uint64_t seq = reserved[k];
        reserved.erase(reserved.begin() + static_cast<std::ptrdiff_t>(k));
        const std::uint32_t id = nextId++;
        q.schedule(when, seq, [&fire, id] { fire(id); });
    };
    fire = [&](std::uint32_t id) {
        logLine(log, id, q.now());
        if (!reserved.empty() && rng.uniform01() < 0.3)
            spawnReserved(q.now());
    };

    for (int step = 0; step < 1500; ++step) {
        const double op = rng.uniform01();
        if (op < 0.35)
            spawn(q.now() + delay());
        else if (op < 0.55)
            reserved.push_back(q.reserveSeq());
        else if (op < 0.8 && !reserved.empty())
            spawnReserved(q.now() + delay());
        else
            q.runUntil(q.now() + Time{static_cast<std::int64_t>(
                                     rng.uniformInt(0, 3000))});
        std::string why;
        if (!q.validateHeap(&why)) {
            ADD_FAILURE() << "seed " << seed << " step " << step << ": "
                          << why;
            return log;
        }
    }
    while (!reserved.empty())
        spawnReserved(q.now() + delay());
    q.run();
    std::string why;
    EXPECT_TRUE(q.validateHeap(&why)) << why;
    return log;
}

TEST(EventOrderGolden, ReservedSeqsMatchReference)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const std::string expected =
            reservedSeqScript<ReferenceQueue>(seed);
        const std::string actual = reservedSeqScript<EventQueue>(seed);
        EXPECT_GT(expected.size(), 5'000u);
        ASSERT_EQ(actual, expected) << "seed " << seed;
    }
}

} // namespace
} // namespace ida::sim
