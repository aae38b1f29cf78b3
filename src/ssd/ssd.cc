#include "ssd/ssd.hh"

#include <algorithm>
#include <string>
#include <utility>

#include "ecc/retry_model.hh"
#include "sim/log.hh"
#include "trace/recorder.hh"

namespace ida::ssd {

namespace {

/** Out of line so the message building stays off the submit path. */
[[noreturn, gnu::noinline]] void
lateArrival(sim::Time arrival, sim::Time now)
{
    sim::fatal("Ssd::submit: HostRequest::arrival = " +
               std::to_string(arrival.count()) +
               " ns is behind the device clock now() = " +
               std::to_string(now.count()) + " ns");
}

} // namespace

double
SsdStats::readThroughputMBps() const
{
    const sim::Time window = lastCompletion - measureStart;
    if (window <= sim::Time{})
        return 0.0;
    return (static_cast<double>(bytesRead) / (1024.0 * 1024.0)) /
           sim::toSec(window);
}

Ssd::Ssd(const SsdConfig &cfg)
    : cfg_(cfg), coding_(cfg.makeCoding()), rng_(cfg.seed)
{
    cfg_.validate();
    chips_ = std::make_unique<flash::ChipArray>(cfg_.geometry, cfg_.timing,
                                                coding_, events_);
    ecc::EccModel ecc = cfg_.useRberRetry
        ? ecc::EccModel(cfg_.adjustErrorRate, ecc::RberModel(),
                        cfg_.rberDeviceAgePe)
        : ecc::EccModel(cfg_.adjustErrorRate,
                        ecc::RetryModel::lifetimePhase(
                            cfg_.retrySeverity));
    ftl_ = std::make_unique<ftl::Ftl>(cfg_.geometry, cfg_.ftl, *chips_,
                                      std::move(ecc), events_, rng_);
}

Ssd::~Ssd() = default;

void
Ssd::preloadSequential(std::uint64_t pages)
{
    if (pages > logicalPages())
        sim::fatal("Ssd::preloadSequential: footprint exceeds logical "
                   "capacity");
    for (flash::Lpn lpn = 0; lpn < pages; ++lpn)
        ftl_->preloadWrite(lpn);
    ftl_->finalizePreload();
}

void
Ssd::start()
{
    ftl_->start();
}

void
Ssd::enableTracing(bool retain_spans)
{
    trace::Recorder::Options opts;
    opts.retainSpans = retain_spans;
    tracer_ = std::make_unique<trace::Recorder>(opts);
    chips_->setTracer(tracer_.get());
    ftl_->setTracer(tracer_.get());
}

void
Ssd::validateRequest(const HostRequest &req) const
{
    if (req.pageCount == 0)
        sim::fatal("Ssd::submit: empty request");
    // Written so it cannot wrap: startPage + pageCount overflows for
    // start pages near UINT64_MAX.
    const std::uint64_t capacity = ftl_->logicalPages();
    if (req.pageCount > capacity ||
        req.startPage > capacity - req.pageCount)
        sim::fatal("Ssd::submit: request beyond logical capacity");
    // A request cannot arrive before the device's present: scheduling
    // it would put an event behind the kernel's clock.
    if (req.arrival < events_.now()) [[unlikely]]
        lateArrival(req.arrival, events_.now());
    if (req.sectorCount != 0) {
        // A sub-page request's sector range must stay inside its page
        // range and touch both the first and the last page, so every
        // page of the request gets a nonempty mask.
        const std::uint64_t spp = cfg_.geometry.sectorsPerPage();
        const std::uint64_t end =
            std::uint64_t{req.startSector} + req.sectorCount;
        if (req.startSector >= spp || end > req.pageCount * spp ||
            end <= (std::uint64_t{req.pageCount} - 1) * spp)
            sim::fatal("Ssd::submit: sector range does not line up with "
                       "the request's page range");
    }
}

template <typename R>
std::uint32_t
Ssd::acquireSlot(R &&req)
{
    const std::uint32_t slot = requestSlots_.acquire();
    RequestSlot &rs = requestSlots_[slot];
    rs = RequestSlot{std::forward<R>(req)};
    rs.pending = rs.req.pageCount;
    return slot;
}

// ida-lint: hot-path-root
void
Ssd::submit(const HostRequest &req)
{
    submitBatch(std::span<const HostRequest>(&req, 1));
}

// ida-lint: hot-path-root
void
Ssd::submitBatch(std::span<const HostRequest> reqs)
{
    std::size_t i = 0;
    while (i < reqs.size()) {
        const sim::Time arrival = reqs[i].arrival;
        std::size_t end = i + 1;
        while (end < reqs.size() && reqs[end].arrival == arrival)
            ++end;
        const std::span<const HostRequest> run = reqs.subspan(i, end - i);
        i = end;
        for (const HostRequest &r : run)
            validateRequest(r);
        inflightRequests_ += run.size();
        if (arrival <= events_.now() ||
            (!arrivals_.empty() && arrival < arrivals_.back().req.arrival)) {
            scheduleRun(run);
            continue;
        }
        // The seq an event scheduled here would take: the run fires at
        // (arrival, seq) whenever it reaches the FIFO's head.
        const std::uint64_t seq = events_.reserveSeq();
        for (const HostRequest &r : run) {
            Arrival &a = arrivals_.emplace_back();
            a.req = r;
            a.seq = seq;
        }
        if (!headArmed_)
            armHead();
    }
}

void
Ssd::scheduleRun(std::span<const HostRequest> run)
{
    std::uint32_t head = sim::kNoSlot;
    std::uint32_t tail = sim::kNoSlot;
    for (const HostRequest &r : run) {
        const std::uint32_t slot = acquireSlot(r);
        (head == sim::kNoSlot ? head : requestSlots_[tail].link) = slot;
        tail = slot;
    }
    if (head == tail)
        events_.schedule(run.front().arrival,
                         [this, head] { dispatchSlot(head); });
    else
        events_.schedule(run.front().arrival,
                         [this, head] { dispatchRun(head); });
}

void
Ssd::armHead()
{
    headArmed_ = !arrivals_.empty();
    if (!headArmed_)
        return;
    const Arrival &a = arrivals_.front();
    events_.schedule(a.req.arrival, a.seq, [this] { admitHead(); });
}

void
Ssd::admitHead()
{
    // Move the oldest run into request slots, then arm the next run
    // before dispatching: a dispatch may re-enter submit() and must
    // find the FIFO and its head event in agreement.
    const std::uint64_t seq = arrivals_.front().seq;
    std::uint32_t head = sim::kNoSlot;
    std::uint32_t tail = sim::kNoSlot;
    do {
        const std::uint32_t slot =
            acquireSlot(std::move(arrivals_.front().req));
        arrivals_.pop_front();
        (head == sim::kNoSlot ? head : requestSlots_[tail].link) = slot;
        tail = slot;
    } while (!arrivals_.empty() && arrivals_.front().seq == seq);
    armHead();
    dispatchRun(head);
}

void
Ssd::dispatchRun(std::uint32_t head)
{
    // Read each link before dispatching its slot: a slot that completes
    // synchronously is recycled and may be taken again at once.
    for (std::uint32_t slot = head; slot != sim::kNoSlot;) {
        const std::uint32_t next = requestSlots_[slot].link;
        dispatchSlot(slot);
        slot = next;
    }
}

flash::SectorMask
Ssd::pageMaskOf(std::uint32_t start_sector, std::uint32_t sector_count,
                std::uint32_t i) const
{
    if (sector_count == 0)
        return 0; // whole page
    const std::uint64_t spp = cfg_.geometry.sectorsPerPage();
    const std::uint64_t pageLo = std::uint64_t{i} * spp;
    const std::uint64_t lo =
        std::max<std::uint64_t>(pageLo, start_sector);
    const std::uint64_t hi =
        std::min<std::uint64_t>(pageLo + spp,
                                std::uint64_t{start_sector} +
                                    sector_count);
    return static_cast<flash::SectorMask>(
        flash::lowSectorMask(static_cast<std::uint32_t>(hi - lo))
        << (lo - pageLo));
}

void
Ssd::dispatchSlot(std::uint32_t slot)
{
    // Copy the fan-out parameters: page completions can re-enter
    // submit() (closed-loop pumps) and grow the slab under any
    // reference held across the loop below.
    const RequestSlot &rs = requestSlots_[slot];
    const bool isRead = rs.req.isRead;
    const flash::Lpn startPage = rs.req.startPage;
    const std::uint32_t pageCount = rs.req.pageCount;
    const std::uint32_t startSector = rs.req.startSector;
    const std::uint32_t sectorCount = rs.req.sectorCount;

    if (rs.req.isTrim) {
        // TRIMs are absorbed by the mapping layer: all pages deallocate
        // synchronously at dispatch, with no simulated flash command
        // and no response-time sample.
        for (std::uint32_t i = 0; i < pageCount; ++i)
            ftl_->hostTrim(startPage + i,
                           pageMaskOf(startSector, sectorCount, i));
        RequestSlot &trimmed = requestSlots_[slot];
        const sim::Time arrival = trimmed.req.arrival;
        // Host-API boundary type: the caller's completion callback is
        // std::function by contract, and this is a move of an existing
        // object, not a fresh type-erasure. ida-lint: allow(IDA010)
        std::function<void(sim::Time)> onComplete =
            std::exchange(trimmed.req.onComplete, nullptr);
        requestSlots_.release(slot);
        --inflightRequests_;
        if (arrival >= stats_.measureStart)
            ++stats_.trimRequests;
        if (onComplete)
            onComplete(events_.now());
        return;
    }

    for (std::uint32_t i = 0; i < pageCount; ++i) {
        const flash::Lpn lpn = startPage + i;
        const flash::SectorMask mask =
            pageMaskOf(startSector, sectorCount, i);
        if (isRead)
            ftl_->hostRead(lpn, mask,
                           [this, slot](sim::Time when, std::uint64_t seq) {
                               pageRead(slot, when, seq);
                           });
        else
            ftl_->hostWrite(lpn, mask, [this, slot](sim::Time when) {
                pageWritten(slot, when);
            });
    }
}

void
Ssd::pageRead(std::uint32_t slot, sim::Time when, std::uint64_t seq)
{
    RequestSlot &rs = requestSlots_[slot];
    if (when > rs.lastDone || (when == rs.lastDone && seq > rs.lastSeq)) {
        rs.lastDone = when;
        rs.lastSeq = seq;
    }
    if (--rs.pending > 0)
        return;
    events_.schedule(rs.lastDone, rs.lastSeq,
                     [this, slot] { finishRequest(slot); });
}

void
Ssd::pageWritten(std::uint32_t slot, sim::Time when)
{
    RequestSlot &rs = requestSlots_[slot];
    rs.lastDone = std::max(rs.lastDone, when);
    if (--rs.pending == 0)
        finishRequest(slot);
}

void
Ssd::finishRequest(std::uint32_t slot)
{
    // Move the request out and recycle the slot before any callback
    // runs: the completion may submit again and reuse this very slot.
    RequestSlot &rs = requestSlots_[slot];
    const HostRequest req = std::exchange(rs.req, HostRequest{});
    const sim::Time lastDone = rs.lastDone;
    requestSlots_.release(slot);
    --inflightRequests_;
    if (req.onComplete)
        req.onComplete(lastDone);
    if (req.arrival < stats_.measureStart)
        return; // warm-up request
    const double resp = sim::toUsec(lastDone - req.arrival);
    const std::uint64_t bytes =
        req.sectorCount != 0
            ? std::uint64_t{req.sectorCount} *
                  cfg_.geometry.sectorSizeBytes
            : std::uint64_t{req.pageCount} *
                  cfg_.geometry.pageSizeBytes;
    SsdStats &st = stats_;
    st.lastCompletion = std::max(st.lastCompletion, lastDone);
    if (req.isRead) {
        ++st.readRequests;
        st.readResponseUs.add(resp);
        st.readHist.add(resp);
        st.bytesRead += bytes;
    } else {
        ++st.writeRequests;
        st.writeResponseUs.add(resp);
        st.bytesWritten += bytes;
    }
}

bool
Ssd::drained() const
{
    return inflightRequests_ == 0 && chips_->inflight() == 0 &&
           ftl_->quiescent();
}

bool
Ssd::validateAdmission(std::string *why) const
{
    const auto fail = [why](std::string msg) {
        if (why)
            *why = std::move(msg);
        return false;
    };
    if (headArmed_ == arrivals_.empty())
        return fail(headArmed_ ? "arrival event armed with an empty FIFO"
                               : "arrival FIFO holds runs but no event");
    if (headArmed_ && !events_.contains(arrivals_.front().req.arrival,
                                        arrivals_.front().seq))
        return fail("no event pending at the oldest run's (arrival, seq)");

    std::string bad;
    const Arrival *prev = nullptr;
    arrivals_.forEach([&](const Arrival &a) {
        if (!bad.empty())
            return;
        if (a.req.arrival < events_.now())
            bad = "arrival FIFO entry behind now()";
        else if (prev && (a.req.arrival < prev->req.arrival ||
                          (a.req.arrival == prev->req.arrival &&
                           a.seq < prev->seq)))
            bad = "arrival FIFO not sorted by (arrival, seq)";
        prev = &a;
    });
    if (!bad.empty())
        return fail(bad);

    if (std::string slab; !requestSlots_.validate(&slab))
        return fail("request slots: " + slab);
    requestSlots_.forEachLive([&](const RequestSlot &rs) {
        // Writes complete without this event, and a read whose first
        // page has not reported has no (tick, seq) yet. (A TRIM is
        // live only before dispatch, with nothing reported.)
        if (!bad.empty() || !rs.req.isRead ||
            rs.pending == rs.req.pageCount)
            return;
        const bool armed = events_.contains(rs.lastDone, rs.lastSeq);
        if (rs.pending == 0 && !armed)
            bad = "read request reported every page but no completion "
                  "event is pending at its (lastDone, lastSeq)";
        else if (rs.pending != 0 && armed)
            bad = "read request with pages outstanding already has an "
                  "event at its (lastDone, lastSeq)";
    });
    if (!bad.empty())
        return fail(bad);
    const std::uint64_t live = requestSlots_.live();
    if (inflightRequests_ != arrivals_.size() + live)
        return fail("inflightRequests " +
                    std::to_string(inflightRequests_) + " != " +
                    std::to_string(arrivals_.size()) + " in the FIFO + " +
                    std::to_string(live) + " live slots");
    return true;
}

} // namespace ida::ssd
