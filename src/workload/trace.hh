/**
 * @file
 * Workload abstractions: the I/O request record and the pull-based
 * trace stream interface shared by the synthetic generator and the MSR
 * trace parser.
 */
#pragma once

#include <cstdint>

#include "flash/geometry.hh"
#include "sim/time.hh"

namespace ida::workload {

/** One host I/O; page-granular unless sectorCount narrows it. */
struct IoRequest
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
};

/**
 * A pull-based request source. Streams must produce non-decreasing
 * arrival times.
 */
class TraceStream
{
  public:
    virtual ~TraceStream() = default;

    /** Produce the next request; false when the trace is exhausted. */
    virtual bool next(IoRequest &out) = 0;

    /** Input records dropped as unparseable (file-backed streams). */
    virtual std::uint64_t malformedLines() const { return 0; }

    /** Input records whose timestamp regressed and was clamped. */
    virtual std::uint64_t outOfOrderLines() const { return 0; }
};

} // namespace ida::workload
