/**
 * @file
 * Model-based differential tests for the FTL.
 *
 * tests/ftl_model.hh replays seeded op sequences against a live device
 * and a reference model, asserting read-your-writes, mapping agreement,
 * and a clean cross-layer audit at every drain point. Each CI run
 * drives >= 10,000 seeded ops per seed with zero model divergences and
 * zero audit violations.
 *
 * IDA_MODEL_OPS (env) scales the sequence length for deeper local
 * sweeps, the same way IDA_AUDIT_REPLAY_SEEDS widens the replay
 * harness. A failure reports (seed, ops) — a complete reproducer;
 * shrink by re-running with smaller ops.
 */
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "ftl_model.hh"
#include "workload/batch.hh"

namespace {

using ida::testing::ModelConfig;
using ida::testing::ModelOutcome;
using ida::testing::runFtlModel;

std::uint64_t
opsPerRun()
{
    if (const char *env = std::getenv("IDA_MODEL_OPS"))
        return static_cast<std::uint64_t>(
            ida::workload::parsePositiveInt(env, "IDA_MODEL_OPS"));
    return 10'000;
}

TEST(FtlModel, PageMappedSeededOpsStayClean)
{
    for (std::uint64_t seed : {1, 2}) {
        ModelConfig mc;
        mc.seed = seed;
        mc.ops = opsPerRun();
        const ModelOutcome out = runFtlModel(mc);
        EXPECT_EQ(out.opsIssued, mc.ops) << "seed " << seed;
        EXPECT_EQ(out.modelFailures, 0u)
            << "seed " << seed << " ops " << mc.ops << ": "
            << out.firstFailure;
        EXPECT_EQ(out.auditViolations, 0u)
            << "seed " << seed << ": " << out.auditSummary;
        EXPECT_GT(out.audits, 0u);
        std::printf("ftl model: seed %llu, %llu audits over %llu events\n",
                    static_cast<unsigned long long>(seed),
                    static_cast<unsigned long long>(out.audits),
                    static_cast<unsigned long long>(out.executedEvents));
        // The sequence must actually exercise the interesting paths.
        EXPECT_GT(out.unmappedReads, 0u) << "seed " << seed;
        EXPECT_GT(out.refreshes, 0u) << "seed " << seed;
    }
}

TEST(FtlModel, RunsAreDeterministic)
{
    ModelConfig mc;
    mc.seed = 7;
    mc.ops = 2'000;
    const ModelOutcome a = runFtlModel(mc);
    const ModelOutcome b = runFtlModel(mc);
    EXPECT_EQ(a.executedEvents, b.executedEvents);
    EXPECT_EQ(a.unmappedReads, b.unmappedReads);
    EXPECT_EQ(a.modelFailures, b.modelFailures);
    EXPECT_EQ(a.auditViolations, b.auditViolations);
}

TEST(FtlModelDeath, MalformedOpsKnobIsFatal)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    for (const char *bad : {"", "abc", "10k", "0", "-5"}) {
        EXPECT_EXIT(
            {
                ::setenv("IDA_MODEL_OPS", bad, 1);
                opsPerRun();
            },
            ::testing::ExitedWithCode(1),
            std::string("IDA_MODEL_OPS expects a positive integer, got '") +
                bad + "'")
            << bad;
    }
}

} // namespace
