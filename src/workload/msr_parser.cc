#include "workload/msr_parser.hh"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <vector>

#include "sim/log.hh"

namespace ida::workload {

namespace {

/** Split a CSV line into at most 8 fields (no quoting in MSR traces). */
std::vector<std::string_view>
splitCsv(const std::string &line)
{
    std::vector<std::string_view> out;
    std::size_t start = 0;
    while (start <= line.size() && out.size() < 8) {
        const std::size_t comma = line.find(',', start);
        if (comma == std::string::npos) {
            out.emplace_back(line.data() + start, line.size() - start);
            break;
        }
        out.emplace_back(line.data() + start, comma - start);
        start = comma + 1;
    }
    return out;
}

bool
parseU64(std::string_view s, std::uint64_t &v)
{
    const auto *first = s.data();
    const auto *last = s.data() + s.size();
    const auto res = std::from_chars(first, last, v);
    return res.ec == std::errc{} && res.ptr == last;
}

} // namespace

MsrTrace::MsrTrace(const std::string &path, std::uint32_t page_size,
                   std::uint64_t logical_pages)
    : in_(path), pageSize_(page_size), logicalPages_(logical_pages)
{
    if (!in_)
        sim::fatal("MsrTrace: cannot open trace file '" + path + "'");
    if (page_size == 0 || logical_pages == 0)
        sim::fatal("MsrTrace: bad page size or logical capacity");
}

bool
MsrTrace::parseLine(const std::string &line, std::uint32_t page_size,
                    std::uint64_t logical_pages, IoRequest &out,
                    std::uint64_t &raw_timestamp)
{
    const auto f = splitCsv(line);
    if (f.size() < 6)
        return false;
    std::uint64_t ts = 0, offset = 0, size = 0;
    if (!parseU64(f[0], ts) || !parseU64(f[4], offset) ||
        !parseU64(f[5], size)) {
        return false;
    }
    const std::string_view type = f[3];
    bool is_read;
    if (type == "Read" || type == "read" || type == "R")
        is_read = true;
    else if (type == "Write" || type == "write" || type == "W")
        is_read = false;
    else
        return false;
    // offset + size - 1 below must not wrap: a record whose byte range
    // runs past 2^64 would otherwise parse as a device-wide request.
    if (size == 0 || size > UINT64_MAX - offset)
        return false;

    raw_timestamp = ts;
    out.isRead = is_read;
    const std::uint64_t first_page = offset / page_size;
    const std::uint64_t last_page = (offset + size - 1) / page_size;
    const auto pages = static_cast<std::uint32_t>(
        std::min({last_page - first_page + 1, logical_pages,
                  std::uint64_t{UINT32_MAX}}));
    out.pageCount = pages;
    out.startPage = first_page % logical_pages;
    if (out.startPage > logical_pages - out.pageCount)
        out.startPage = logical_pages - out.pageCount;
    return true;
}

bool
MsrTrace::next(IoRequest &out)
{
    std::string line;
    while (std::getline(in_, line)) {
        std::uint64_t raw_ts = 0;
        if (!parseLine(line, pageSize_, logicalPages_, out, raw_ts)) {
            ++malformed_;
            continue;
        }
        if (!haveBase_) {
            haveBase_ = true;
            baseTimestamp_ = raw_ts;
        }
        // Windows filetime ticks are 100 ns.
        const std::uint64_t rel =
            raw_ts >= baseTimestamp_ ? raw_ts - baseTimestamp_ : 0;
        const sim::Time arrival{rel * 100};
        if (arrival < lastArrival_) {
            // Some MSR volumes carry mis-sorted records. The stream
            // contract requires non-decreasing arrivals, so clamp — but
            // account for it instead of silently flattening the trace.
            ++outOfOrder_;
            out.arrival = lastArrival_;
        } else {
            out.arrival = arrival;
        }
        lastArrival_ = out.arrival;
        return true;
    }
    return false;
}

} // namespace ida::workload
