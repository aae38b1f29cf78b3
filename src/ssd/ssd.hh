/**
 * @file
 * The top-level SSD device: owns the event queue, chip array, ECC model
 * and FTL, accepts multi-page host requests, and collects the response
 * time / throughput statistics the paper's figures report.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "ecc/ecc_model.hh"
#include "flash/chip.hh"
#include "ftl/ftl.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "ssd/config.hh"
#include "stats/histogram.hh"
#include "stats/stats.hh"

namespace ida::trace {
class Recorder;
}

namespace ida::ssd {

/**
 * One host I/O request. Page-granular (like the paper's simulator)
 * unless sectorCount narrows it to a sub-page range; TRIMs are pure
 * metadata operations that complete at dispatch.
 */
struct HostRequest
{
    sim::Time arrival{};
    bool isRead = true;
    /** TRIM/deallocate instead of a data transfer (isRead ignored). */
    bool isTrim = false;
    flash::Lpn startPage = 0;
    std::uint32_t pageCount = 1;
    /** First sector touched, relative to startPage's first sector. */
    std::uint32_t startSector = 0;
    /** Sectors touched; 0 = whole pages (the page-granular default). */
    std::uint32_t sectorCount = 0;
    /** Optional notification when the whole request completes. */
    std::function<void(sim::Time)> onComplete;
};

/** Device-level measured statistics. */
struct SsdStats
{
    stats::Summary readResponseUs;   // per *request*, arrival->done
    stats::Summary writeResponseUs;
    stats::Histogram readHist{1.0, 1.25, 96};
    std::uint64_t readRequests = 0;  // measured only
    std::uint64_t writeRequests = 0;
    std::uint64_t trimRequests = 0;  // measured only; no response stats
    std::uint64_t bytesRead = 0;     // measured only
    std::uint64_t bytesWritten = 0;
    sim::Time measureStart{};
    sim::Time lastCompletion{};

    /** Measured host-read throughput in MB/s. */
    double readThroughputMBps() const;
};

/**
 * The simulated SSD.
 *
 * Usage: construct, preload the footprint, start(), submit requests
 * (arrival times must be non-decreasing relative to the event clock),
 * then run the event queue.
 */
class Ssd
{
  public:
    explicit Ssd(const SsdConfig &cfg);
    ~Ssd();

    Ssd(const Ssd &) = delete;
    Ssd &operator=(const Ssd &) = delete;

    const SsdConfig &config() const { return cfg_; }
    sim::EventQueue &events() { return events_; }
    const sim::EventQueue &events() const { return events_; }
    flash::ChipArray &chips() { return *chips_; }
    const flash::ChipArray &chips() const { return *chips_; }
    /** The page-mapped FTL. */
    ftl::Ftl &ftl() { return *ftl_; }
    const ftl::Ftl &ftl() const { return *ftl_; }
    /** Same object as ftl(); kept for callers written against it. */
    ftl::Ftl &backend() { return *ftl_; }
    const flash::CodingScheme &coding() const { return coding_; }

    /** Exported logical capacity in pages. */
    std::uint64_t logicalPages() const { return ftl_->logicalPages(); }

    /** Instantly install logical pages [0, pages) (no simulated time). */
    void preloadSequential(std::uint64_t pages);

    /** Arm periodic FTL activity (refresh scanning). */
    void start();

    /**
     * Enqueue a host request at its arrival time. Requests arriving
     * before @p measureStart (see setMeasureStart) are executed but not
     * included in the response statistics (warm-up).
     */
    void submit(const HostRequest &req);

    /**
     * Enqueue many host requests in submission order. Consecutive
     * requests sharing one arrival tick are admitted through a single
     * arrival event that dispatches the whole run in order — the event
     * stream the device produces is identical to submitting them one by
     * one (dispatch order is preserved and nothing else observes the
     * arrival events), but a same-tick burst costs one event instead of
     * one per request.
     */
    void submitBatch(std::span<const HostRequest> reqs);

    /** Statistics only count requests arriving at or after this time. */
    void setMeasureStart(sim::Time t) { stats_.measureStart = t; }

    const SsdStats &stats() const { return stats_; }

    /**
     * Create the span recorder and attach it to the chip array and the
     * FTL (replaces any previous recorder). May be called at any time,
     * also mid-run: commands issued from then on are stamped, commands
     * already queued finish untraced, and the simulation itself is not
     * perturbed. Without this call nothing is stamped. @p retain_spans
     * keeps every raw span for chrome-trace export — leave off for
     * long runs.
     */
    void enableTracing(bool retain_spans = false);

    /** The attached recorder, or null when tracing was never enabled. */
    trace::Recorder *tracer() { return tracer_.get(); }
    const trace::Recorder *tracer() const { return tracer_.get(); }

    /** True when no host or internal flash operation is outstanding. */
    bool drained() const;

    /** Host requests submitted but not yet fully completed. */
    std::uint64_t inflightRequests() const { return inflightRequests_; }

  private:
    /**
     * A host request's whole device-side lifetime: submitted and
     * waiting for its arrival tick, then acting as the shared
     * completion context while its page operations are in flight.
     * Slab-pooled so the arrival event and every page-completion
     * callback capture {this, slot} (16 bytes) instead of a full
     * HostRequest — and so requests allocate nothing in the steady
     * state (the seed heap-allocated a shared_ptr context per request).
     * `link` chains a same-tick admission batch while pending, then the
     * free list after completion.
     */
    struct RequestSlot
    {
        HostRequest req;
        std::uint32_t pending = 0;
        sim::Time lastDone{};
        std::uint32_t link = kNilSlot;
    };

    static constexpr std::uint32_t kNilSlot = ~std::uint32_t{0};

    std::uint32_t acquireSlot(const HostRequest &req);
    void releaseSlot(std::uint32_t slot);
    void validateRequest(const HostRequest &req) const;
    void dispatchSlot(std::uint32_t slot);
    void dispatchRun(std::uint32_t head);
    void pageDone(std::uint32_t slot, sim::Time when);

    /**
     * Sector mask of the @p i-th page of a request with the given
     * sector range (0 = whole page). Takes the range by value so the
     * fan-out loop holds no reference into the request slab — page
     * completions may re-enter submit() and grow it.
     */
    flash::SectorMask pageMaskOf(std::uint32_t start_sector,
                                 std::uint32_t sector_count,
                                 std::uint32_t i) const;

    SsdConfig cfg_;
    flash::CodingScheme coding_;
    sim::EventQueue events_;
    sim::Rng rng_;
    std::unique_ptr<flash::ChipArray> chips_;
    std::unique_ptr<ftl::Ftl> ftl_;
    std::unique_ptr<trace::Recorder> tracer_;
    SsdStats stats_;
    std::vector<RequestSlot> requestSlots_;
    std::uint32_t freeSlot_ = kNilSlot;
    std::uint64_t inflightRequests_ = 0;
};

} // namespace ida::ssd
