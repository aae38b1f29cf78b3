#include "spans.hh"

#include <cstdio>
#include <filesystem>

namespace perfbench {

const char *
spanNameOf(SpanName n)
{
    static constexpr const char *kNames[] = {
        "trial",        "setup",     "ssd.ctor",     "ftl.preload",
        "ftl.refresh_wave", "run",   "workload.next", "ssd.submit",
        "bench.pump",   "sim.run",   "stats.harvest", "fleet.ctor",
        "fleet.preload", "fleet.run",
    };
    static_assert(std::size(kNames) ==
                  static_cast<std::size_t>(SpanName::Count));
    return kNames[static_cast<std::size_t>(n)];
}

SpanTotals
SpanLog::totals() const
{
    SpanTotals t;
    std::vector<std::int64_t> childNs(spans_.size(), 0);
    for (const Span &s : spans_) {
        if (s.parent != kNoParent)
            childNs[s.parent] += s.end - s.start;
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const auto k = static_cast<std::size_t>(s.name);
        t.totalNs[k] += s.end - s.start;
        t.selfNs[k] += s.end - s.start - childNs[i];
        ++t.count[k];
    }
    return t;
}

void
SpanLog::endTrial()
{
    if (kept_.empty())
        kept_.swap(spans_);
    spans_.clear();
    stack_.clear();
}

bool
SpanLog::write(const std::string &path) const
{
    const std::filesystem::path p(path);
    std::error_code ec;
    if (p.has_parent_path())
        std::filesystem::create_directories(p.parent_path(), ec);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "id\tname\tstart_ns\tend_ns\tparent\tio\n");
    const std::int64_t t0 = kept_.empty() ? 0 : kept_.front().start;
    for (std::size_t i = 0; i < kept_.size(); ++i) {
        const Span &s = kept_[i];
        // An IO's spans nest only under its own spans or untagged ones,
        // so dropping whole IOs leaves every written parent in place.
        if (s.io != kNoIo && s.io >= kWrittenIos)
            continue;
        std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%lld\t%lld\n", i,
                     spanNameOf(s.name),
                     static_cast<long long>(s.start - t0),
                     static_cast<long long>(s.end - t0),
                     s.parent == kNoParent
                         ? -1ll
                         : static_cast<long long>(s.parent),
                     s.io == kNoIo ? -1ll : static_cast<long long>(s.io));
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
