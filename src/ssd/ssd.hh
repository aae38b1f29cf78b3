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
#include <string>
#include <vector>

#include "ecc/ecc_model.hh"
#include "flash/chip.hh"
#include "ftl/ftl.hh"
#include "sim/chunked_fifo.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/slab.hh"
#include "ssd/config.hh"
#include "stats/histogram.hh"
#include "stats/stats.hh"

namespace ida::trace {
class Recorder;
}

namespace ida::audit::testing {
struct SsdPeer;
}

namespace ida::ssd {

/**
 * One host I/O request. Page-granular (like the paper's simulator)
 * unless sectorCount narrows it to a sub-page range; TRIMs are pure
 * metadata operations that complete at dispatch.
 */
struct HostRequest
{
    // Ordered so the flags fill the 32-bit fields' padding: 64 bytes,
    // one cache line per request waiting in the arrival FIFO.
    sim::Time arrival{};
    flash::Lpn startPage = 0;
    std::uint32_t pageCount = 1;
    /** First sector touched, relative to startPage's first sector. */
    std::uint32_t startSector = 0;
    /** Sectors touched; 0 = whole pages (the page-granular default). */
    std::uint32_t sectorCount = 0;
    bool isRead = true;
    /** TRIM/deallocate instead of a data transfer (isRead ignored). */
    bool isTrim = false;
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
 *
 * Arrival admission: requests submitted ahead of their arrival wait in
 * an arrival FIFO outside the event queue, which holds one event for
 * the FIFO's oldest run only. Such a request takes its slot (the
 * completion context its page operations share) when that event admits
 * it, so the device's memory follows the requests in flight, not the
 * length of the trace submitted ahead.
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
     * Enqueue a host request at its arrival time: a one-element
     * submitBatch(). Requests arriving before @p measureStart (see
     * setMeasureStart) are executed but not included in the response
     * statistics (warm-up).
     */
    void submit(const HostRequest &req);

    /**
     * Enqueue many host requests in submission order. Consecutive
     * requests sharing one arrival tick form a run, dispatched in order
     * by one arrival event, so a same-tick burst costs one event
     * instead of one per request.
     *
     * A run arriving in the future takes its event sequence number
     * here (EventQueue::reserveSeq) and waits in the arrival FIFO; only
     * the FIFO's oldest run has an event in the queue, and admitting it
     * arms the next. A run that is already due (arrival <= now()) or
     * arrives before the FIFO's newest run is scheduled as its own
     * event instead. Either way every run fires at (arrival, seq)
     * exactly as if it had been scheduled here, so the device's event
     * stream — and every result — is identical to submitting the
     * requests one by one.
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

    /**
     * Verify arrival admission, for the auditor (src/audit): the FIFO
     * is sorted by (arrival, seq) with no entry behind now(); an
     * arrival event is pending at the oldest run's (arrival, seq) iff
     * the FIFO is non-empty; the request slots' free list is sound
     * (sim::Slab::validate); inflightRequests() equals the FIFO's
     * entries plus the live request slots; and a read request has its
     * one completion event pending at its latest page's (tick, seq)
     * once every page has reported, and none before. O(FIFO + slots).
     *
     * Returns true when every invariant holds; otherwise false, with a
     * description of the first failure in @p why (when non-null).
     */
    bool validateAdmission(std::string *why = nullptr) const;

  private:
    friend struct ida::audit::testing::SsdPeer;

    /**
     * An admitted host request: the shared completion context while its
     * page operations are in flight. Slab-pooled so every
     * page-completion callback captures {this, slot} (16 bytes) instead
     * of a full HostRequest — and so requests allocate nothing in the
     * steady state. `link` chains a run awaiting dispatch.
     *
     * A read's pages report (tick, seq) as their ticks become known
     * (ftl::ReadDone); (lastDone, lastSeq) keeps the latest, and the
     * last report schedules the request's one completion event there,
     * where the latest page's own event would have dispatched. A
     * write's pages complete through their own events.
     */
    struct RequestSlot
    {
        HostRequest req;
        /** Pages not yet reported (reads) or completed (writes). */
        std::uint32_t pending = 0;
        sim::Time lastDone{};
        std::uint64_t lastSeq = 0;
        std::uint32_t link = sim::kNoSlot;
    };

    /** A submitted request in the arrival FIFO, with its run's seq. */
    struct Arrival
    {
        HostRequest req;
        std::uint64_t seq = 0;
    };

    /** Take a free request slot and copy or move @p req into it. */
    template <typename R>
    std::uint32_t acquireSlot(R &&req);
    void validateRequest(const HostRequest &req) const;
    /** Give a due or out-of-order run slots now and its own event. */
    void scheduleRun(std::span<const HostRequest> run);
    /** Schedule the arrival event of the FIFO's oldest run. */
    void armHead();
    /** Arrival event: admit the oldest run, re-arm, dispatch the run. */
    void admitHead();
    void dispatchSlot(std::uint32_t slot);
    void dispatchRun(std::uint32_t head);
    void pageRead(std::uint32_t slot, sim::Time when, std::uint64_t seq);
    void pageWritten(std::uint32_t slot, sim::Time when);
    /** Recycle a completed request's slot, notify and account it. */
    void finishRequest(std::uint32_t slot);

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
    sim::ChunkedFifo<Arrival> arrivals_;
    /** The FIFO's oldest run has its arrival event pending. */
    bool headArmed_ = false;
    sim::Slab<RequestSlot> requestSlots_;
    std::uint64_t inflightRequests_ = 0;
};

} // namespace ida::ssd
