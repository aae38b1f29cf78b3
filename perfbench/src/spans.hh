/**
 * @file
 * In-memory span log for the traced run.
 *
 * Spans are recorded from the benchmark's own code, around each call
 * it makes into the simulator's public interface (the program itself
 * carries no spans yet). Each span has a name, a start and end on the
 * steady clock, the span that encloses it and, where one applies, the
 * id of the host IO it belongs to. Spans stay in memory while a trial
 * runs; self times are derived from them afterwards and the first
 * trial's spans are written out when the benchmark ends.
 *
 * A disabled log records nothing, so the untraced run pays one branch
 * per scope.
 */
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Every span the benchmark records, one per layer boundary. */
enum class SpanName : std::uint8_t {
    Trial,        // one whole trial: set-up, run, harvest
    Setup,        // device or fleet construction to first submission
    SsdCtor,      // ssd::Ssd constructor
    Preload,      // preloadSequential + preloadWrite + finalizePreload
    RefreshWave,  // the closed loops' set-up refresh wave (runUntil)
    Run,          // first submission through drain and harvest
    Next,         // SyntheticTrace::next
    Submit,       // Ssd::submit / Ssd::submitBatch
    Pump,         // closed-loop completion handler (next + submit)
    SimRun,       // EventQueue::runUntil during the run
    Harvest,      // workload::harvestResult
    FleetCtor,    // fleet::Fleet constructor
    FleetPreload, // Fleet preload + pre-aging writes
    FleetRun,     // Fleet::run (stage, member event loops, merge)
    Count
};

const char *spanNameOf(SpanName n);

constexpr std::uint64_t kNoIo = ~std::uint64_t{0};
constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

struct Span
{
    std::int64_t start = 0; // ns on the steady clock
    std::int64_t end = 0;
    std::uint64_t io = kNoIo;
    std::uint32_t parent = kNoParent;
    SpanName name = SpanName::Trial;
};

/** Per-name totals derived from one trial's spans. */
struct SpanTotals
{
    std::array<std::int64_t, static_cast<std::size_t>(SpanName::Count)>
        totalNs{};
    std::array<std::int64_t, static_cast<std::size_t>(SpanName::Count)>
        selfNs{};
    std::array<std::uint64_t, static_cast<std::size_t>(SpanName::Count)>
        count{};

    double total(SpanName n) const
    {
        return static_cast<double>(totalNs[static_cast<std::size_t>(n)]);
    }
    double self(SpanName n) const
    {
        return static_cast<double>(selfNs[static_cast<std::size_t>(n)]);
    }
    std::uint64_t calls(SpanName n) const
    {
        return count[static_cast<std::size_t>(n)];
    }
};

class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Make room for @p n spans so recording never reallocates. */
    void reserve(std::size_t n) { spans_.reserve(n); }

    static std::int64_t
    nowNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    std::uint32_t
    open(SpanName name, std::uint64_t io)
    {
        const auto id = static_cast<std::uint32_t>(spans_.size());
        Span s;
        s.name = name;
        s.io = io;
        s.parent = stack_.empty() ? kNoParent : stack_.back();
        s.start = nowNs();
        spans_.push_back(s);
        stack_.push_back(id);
        return id;
    }

    void
    close(std::uint32_t id)
    {
        spans_[id].end = nowNs();
        stack_.pop_back();
    }

    /** Self time per span: duration minus what its children cover. */
    SpanTotals totals() const;

    /** Drop this trial's spans, keeping the first trial's for export. */
    void endTrial();

    /**
     * Write the kept spans as tab-separated lines, with the IO spans of
     * the first kWrittenIos IOs only (a whole trial would run to tens of
     * MB); false on error.
     */
    bool write(const std::string &path) const;

    static constexpr std::uint64_t kWrittenIos = 100'000;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<Span> kept_;
    std::vector<std::uint32_t> stack_;
};

/** RAII scope around one call into the program. */
class Scope
{
  public:
    Scope(SpanLog &log, SpanName name, std::uint64_t io = kNoIo)
        : log_(log)
    {
        if (log_.enabled())
            id_ = log_.open(name, io);
    }
    ~Scope() { close(); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** End the span before the scope does. */
    void
    close()
    {
        if (log_.enabled() && !closed_) {
            log_.close(id_);
            closed_ = true;
        }
    }

  private:
    SpanLog &log_;
    std::uint32_t id_ = 0;
    bool closed_ = false;
};

} // namespace perfbench
