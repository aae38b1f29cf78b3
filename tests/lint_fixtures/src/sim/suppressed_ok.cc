// Fixture: every violation below carries a suppression, so ida-lint
// must report NOTHING for this file (tests/test_lint.cc asserts rc 0).
// Exercises all three forms: allow-file, same-line allow, and a
// comment-only line blessing the next line.
#include <cstdio>
#include <cstdlib>

// ida-lint: allow-file(IDA004)

namespace ida::sim {

unsigned
legacySeed()
{
    return static_cast<unsigned>(rand());
}

int
parseDepth(const char *arg)
{
    const int depth = std::atoi(arg); // ida-lint: allow(IDA007) checked
    // ida-lint: allow(IDA008) one-off diagnostic
    std::printf("depth=%d\n", depth);
    return depth;
}

} // namespace ida::sim
