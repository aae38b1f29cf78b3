#include "reference.hh"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

namespace perfbench {

namespace {

/**
 * Nominal rates, in ops per CPU-second, of the kernels below: their
 * typical speed on the 4-vCPU Xeon VM (2.1 GHz) the benchmark was
 * built on. They fix the unit of the normalized times and nothing else.
 */
constexpr double kNominalHeapOps = 5.8e6;
constexpr double kNominalEventOps = 2.6e6;
constexpr double kNominalHashOps = 6.5e8;
constexpr double kNominalAllocOps = 2.7e7;

volatile std::uint64_t gSink = 0;

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

std::uint64_t
next(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t h = x;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    return h ^ (h >> 31);
}

/** A bounded min-heap fed random keys, beside random 16 MiB table updates. */
double
heapOpsPerS()
{
    constexpr std::uint32_t kMask = (1u << 21) - 1;
    constexpr int kOps = 300000;
    std::vector<std::uint64_t> table(kMask + 1);
    std::vector<std::uint64_t> store;
    store.reserve(4097);
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        heap(std::greater<>{}, std::move(store));
    std::uint64_t x = 12345, acc = 0;
    const double c0 = cpuNow();
    for (int i = 0; i < kOps; ++i) {
        const std::uint64_t r = next(x);
        heap.push(r);
        if (heap.size() > 4096) {
            acc += heap.top();
            heap.pop();
        }
        table[r & kMask] += static_cast<std::uint64_t>(i);
        acc ^= table[(r >> 21) & kMask];
    }
    const double s = cpuNow() - c0;
    gSink = gSink + acc;
    return kOps / s;
}

/**
 * A miniature event loop: timed callbacks in a heap, a hash map from
 * logical to physical pages, and a validity bitmap.
 */
double
eventOpsPerS()
{
    constexpr int kOps = 150000;
    constexpr std::uint32_t kPhys = 1u << 20;
    struct Ev
    {
        std::uint64_t t;
        std::function<void()> fn;
    };
    const auto later = [](const Ev &a, const Ev &b) { return a.t > b.t; };
    std::priority_queue<Ev, std::vector<Ev>, decltype(later)> q(later);
    std::unordered_map<std::uint64_t, std::uint32_t> map;
    std::vector<std::uint32_t> valid(kPhys);
    std::uint64_t x = 999, acc = 0;
    const double c0 = cpuNow();
    for (int i = 0; i < 64; ++i)
        q.push({static_cast<std::uint64_t>(i), {}});
    for (int i = 0; i < kOps; ++i) {
        Ev e = q.top();
        q.pop();
        if (e.fn)
            e.fn();
        const std::uint64_t r = next(x);
        const std::uint64_t lpn = r % 150000;
        auto it = map.find(lpn);
        if (it == map.end() || (r >> 40) % 4 == 0) {
            const auto ppn = static_cast<std::uint32_t>(r >> 44) & (kPhys - 1);
            if (it != map.end())
                valid[it->second] = 0;
            map[lpn] = ppn;
            valid[ppn] = 1;
        } else {
            acc += valid[it->second];
        }
        q.push({e.t + 1 + (r >> 54),
                [&acc, i] { acc += static_cast<std::uint64_t>(i); }});
    }
    const double s = cpuNow() - c0;
    gSink = gSink + acc;
    return kOps / s;
}

/** Register-only arithmetic: the core's own speed. */
double
hashOpsPerS()
{
    constexpr int kOps = 20000000;
    std::uint64_t x = 1, acc = 0;
    const double c0 = cpuNow();
    for (int i = 0; i < kOps; ++i)
        acc += next(x);
    const double s = cpuNow() - c0;
    gSink = gSink + acc;
    return kOps / s;
}

/** Allocation churn: 8192 live blocks of 16 to 511 bytes, replaced at random. */
double
allocOpsPerS()
{
    constexpr int kOps = 1000000;
    constexpr std::uint64_t kLive = 8192;
    std::vector<char *> live(kLive, nullptr);
    std::uint64_t x = 5;
    const double c0 = cpuNow();
    for (int i = 0; i < kOps; ++i) {
        const std::uint64_t r = next(x);
        char *&p = live[r % kLive];
        std::free(p);
        p = static_cast<char *>(std::malloc(16 + (r >> 20) % 496));
        p[0] = static_cast<char>(i);
    }
    const double s = cpuNow() - c0;
    for (char *p : live)
        std::free(p);
    return kOps / s;
}

} // namespace

double
hostSpeed()
{
    // Each kernel tracks some of what slows the simulator on a busy
    // host and none tracks all of it; their geometric mean tracked it
    // best of the combinations tried (README.md).
    const double product =
        heapOpsPerS() / kNominalHeapOps * (eventOpsPerS() / kNominalEventOps) *
        (hashOpsPerS() / kNominalHashOps) * (allocOpsPerS() / kNominalAllocOps);
    return std::sqrt(std::sqrt(product));
}

} // namespace perfbench
