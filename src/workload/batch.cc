#include "workload/batch.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "sim/log.hh"
#include "stats/json_writer.hh"

namespace ida::workload {

std::uint64_t
seedFromTag(const std::string &tag)
{
    if (tag.empty())
        return 0;
    // FNV-1a over the bytes...
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : tag) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    // ...then one splitmix64 round so single-character differences
    // still decorrelate the high bits the engines care about.
    h += 0x9e3779b97f4a7c15ull;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    return h ^ (h >> 31);
}

long long
parsePositiveInt(const char *s, const char *what, long long max)
{
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(s, &end, 10);
    if (end == s || *end != '\0' || errno == ERANGE || v <= 0 || v > max)
        sim::fatal(std::string(what) + " expects a positive integer, "
                   "got '" + s + "'");
    return v;
}

double
parsePositiveReal(const char *s, const char *what)
{
    char *end = nullptr;
    const double v = std::strtod(s, &end);
    if (end == s || *end != '\0' || !std::isfinite(v) || !(v > 0.0))
        sim::fatal(std::string(what) + " expects a positive number, "
                   "got '" + s + "'");
    return v;
}

namespace {

int
parseJobs(const char *s, const char *what)
{
    return static_cast<int>(parsePositiveInt(s, what, INT_MAX));
}

} // namespace

int
defaultJobs()
{
    if (const char *env = std::getenv("IDA_JOBS"))
        return parseJobs(env, "IDA_JOBS");
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

int
jobsFromArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strcmp(a, "--jobs") == 0 || std::strcmp(a, "-j") == 0) {
            if (i + 1 >= argc)
                sim::fatal(std::string(a) + " expects a value");
            return parseJobs(argv[i + 1], a);
        }
        if (std::strncmp(a, "--jobs=", 7) == 0)
            return parseJobs(a + 7, "--jobs");
        if (std::strncmp(a, "-j", 2) == 0 && a[2] != '\0')
            return parseJobs(a + 2, "-j");
    }
    return 0;
}

namespace {

/** Serializes progress lines from concurrent workers. */
class ProgressReporter
{
  public:
    ProgressReporter(std::size_t total, bool enabled)
        : total_(total), enabled_(enabled)
    {
    }

    void
    done(const std::string &tag, double seconds)
    {
        if (!enabled_)
            return;
        std::lock_guard<std::mutex> g(mu_);
        ++completed_;
        // Progress meter contract: stderr only, so stdout stays
        // byte-identical across --jobs (the determinism contract).
        // ida-lint: allow(IDA008) deliberate stderr progress meter
        std::fprintf(stderr, "[%zu/%zu] %s (%.1fs)\n", completed_,
                     total_, tag.c_str(), seconds);
    }

    void
    failed(const std::string &tag, const std::string &what)
    {
        if (!enabled_)
            return;
        std::lock_guard<std::mutex> g(mu_);
        ++completed_;
        // ida-lint: allow(IDA008) progress meter, stderr only (see above).
        std::fprintf(stderr, "[%zu/%zu] %s FAILED: %s\n", completed_,
                     total_, tag.c_str(), what.c_str());
    }

  private:
    std::mutex mu_;
    std::size_t total_;
    std::size_t completed_ = 0;
    bool enabled_;
};

/**
 * Cheap up-front sanity checks so degenerate specs fail with a clear
 * message instead of tripping a panic deep inside the simulator.
 */
void
checkSpec(const RunSpec &spec)
{
    if (spec.preset.synth.footprintPages == 0)
        throw std::invalid_argument("preset has an empty footprint");
    if (spec.preset.synth.totalRequests == 0)
        throw std::invalid_argument("preset generates no requests");
    if (spec.kind == RunKind::ClosedLoop && spec.queueDepth <= 0)
        throw std::invalid_argument("closed-loop run needs queueDepth >= 1");
}

RunResult
runOne(const RunSpec &spec)
{
    checkSpec(spec);
    ssd::SsdConfig device = spec.device;
    device.seed ^= seedFromTag(spec.tag);
    switch (spec.kind) {
      case RunKind::ClosedLoop:
        return runClosedLoop(device, spec.preset, spec.queueDepth);
      case RunKind::OpenLoop:
      default:
        return runPreset(device, spec.preset);
    }
}

} // namespace

// ida-lint: shard-root
BatchOutcome
runMatrix(const std::vector<RunSpec> &specs, const BatchOptions &opts)
{
    const auto wall0 = std::chrono::steady_clock::now();

    BatchOutcome out;
    out.results.resize(specs.size());
    out.errors.resize(specs.size());
    if (specs.empty())
        return out;

    int jobs = opts.jobs > 0 ? opts.jobs : defaultJobs();
    jobs = std::min<int>(jobs, static_cast<int>(specs.size()));
    jobs = std::max(jobs, 1);
    out.jobs = jobs;

    ProgressReporter progress(specs.size(), opts.progress);
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> failures{0};

    // Reject duplicate non-empty tags up front: the tag names the run in
    // every export, and the tag-derived device seeds (determinism
    // contract point 2) would collide, silently turning intended
    // replicas into identical runs. Failure-isolation style: the later
    // duplicates land in `errors` and the rest of the batch runs.
    {
        std::vector<std::string> seen;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const std::string &tag = specs[i].tag;
            if (tag.empty())
                continue;
            if (std::find(seen.begin(), seen.end(), tag) != seen.end()) {
                out.errors[i] = "duplicate tag '" + tag +
                                "' (tag-derived seeds would collide)";
                failures.fetch_add(1);
                progress.failed(tag, out.errors[i]);
            } else {
                seen.push_back(tag);
            }
        }
    }

    auto worker = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= specs.size())
                return;
            if (!out.errors[i].empty())
                continue; // rejected up front (duplicate tag)
            const RunSpec &spec = specs[i];
            try {
                out.results[i] = runOne(spec);
                progress.done(spec.tag, out.results[i].wallSeconds);
            } catch (const std::exception &e) {
                out.errors[i] = e.what();
                failures.fetch_add(1);
                progress.failed(spec.tag, e.what());
            } catch (...) {
                out.errors[i] = "unknown exception";
                failures.fetch_add(1);
                progress.failed(spec.tag, "unknown exception");
            }
        }
    };

    if (jobs == 1) {
        // In-thread fast path: keeps single-job runs debuggable (no
        // thread hop) and exactly reproduces the pooled results by the
        // determinism contract.
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (int t = 0; t < jobs; ++t)
            pool.emplace_back(worker);
        for (auto &th : pool)
            th.join();
    }

    out.failed = failures.load();
    out.wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall0)
                          .count();
    return out;
}

std::string
resultsDir()
{
    if (const char *env = std::getenv("IDA_RESULTS_DIR")) {
        if (*env != '\0')
            return env;
    }
    return "results";
}

bool
exportResults(const std::string &path, const std::string &harness,
              const std::vector<std::pair<std::string, std::string>> &meta,
              const std::vector<RunSpec> &specs,
              const BatchOutcome &outcome)
{
    if (specs.size() != outcome.results.size() ||
        specs.size() != outcome.errors.size()) {
        sim::warn("exportResults: outcome does not match specs, skipping");
        return false;
    }

    const std::filesystem::path p(path);
    std::error_code ec;
    if (p.has_parent_path())
        std::filesystem::create_directories(p.parent_path(), ec);
    std::ofstream os(p);
    if (!os) {
        sim::warn("exportResults: cannot write " + path);
        return false;
    }

    stats::JsonWriter w(os);
    w.beginObject();
    w.field("harness", harness);
    w.key("meta");
    w.beginObject();
    for (const auto &[k, v] : meta)
        w.field(k, v);
    w.endObject();
    w.key("runs");
    w.beginArray();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        w.beginObject();
        w.field("tag", specs[i].tag);
        if (!outcome.errors[i].empty()) {
            w.field("error", outcome.errors[i]);
        } else {
            w.key("result");
            outcome.results[i].writeJson(w, /*include_volatile=*/false);
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return static_cast<bool>(os);
}

} // namespace ida::workload
