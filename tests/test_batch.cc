/**
 * @file
 * Tests for the parallel matrix runner (workload/batch.hh) and the JSON
 * result sink (stats/json_writer.hh): the determinism contract across
 * parallelism levels, per-spec failure isolation, and escaping
 * round-trips.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "stats/json_writer.hh"
#include "workload/batch.hh"

namespace ida::workload {
namespace {

WorkloadPreset
tinyPreset(const std::string &name, double read_ratio, std::uint64_t seed)
{
    WorkloadPreset p;
    p.name = name;
    p.synth.footprintPages = 700;
    p.synth.totalRequests = 3000;
    p.synth.duration = 10 * sim::kMin;
    p.synth.readRatio = read_ratio;
    p.synth.seed = seed;
    p.refreshPeriod = 4 * sim::kMin;
    p.warmupFraction = 0.25;
    p.prewriteFraction = 0.3;
    return p;
}

std::vector<RunSpec>
tinyMatrix()
{
    ssd::SsdConfig base = ssd::SsdConfig::tiny();
    ssd::SsdConfig ida = base;
    ida.ftl.enableIda = true;
    ida.adjustErrorRate = 0.20;

    std::vector<RunSpec> specs;
    for (const auto &preset :
         {tinyPreset("a", 0.95, 7), tinyPreset("b", 0.80, 9)}) {
        for (const auto *sys : {&base, &ida}) {
            RunSpec s;
            s.device = *sys;
            s.preset = preset;
            s.tag = preset.name +
                    (sys->ftl.enableIda ? "/ida" : "/base");
            specs.push_back(std::move(s));
        }
    }
    return specs;
}

BatchOptions
quiet(int jobs)
{
    BatchOptions opts;
    opts.jobs = jobs;
    opts.progress = false;
    return opts;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

TEST(Batch, SameResultsAtAnyParallelism)
{
    const auto specs = tinyMatrix();
    const auto serial = runMatrix(specs, quiet(1));
    const auto parallel = runMatrix(specs, quiet(4));

    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(parallel.ok());
    ASSERT_EQ(serial.results.size(), specs.size());
    ASSERT_EQ(parallel.results.size(), specs.size());
    EXPECT_EQ(serial.jobs, 1);
    EXPECT_EQ(parallel.jobs, 4);

    for (std::size_t i = 0; i < specs.size(); ++i) {
        // Full bit-identity of every measurement, via the deterministic
        // JSON form (wall clock excluded; it is the one volatile field).
        EXPECT_EQ(serial.results[i].toJson(false),
                  parallel.results[i].toJson(false))
            << "spec " << specs[i].tag
            << " diverged between -j1 and -j4";
        EXPECT_GT(serial.results[i].measuredReads, 0u);
    }

    // The archives the two levels export are byte-identical as well.
    const std::string dir = testing::TempDir() + "/ida_batch_parallelism/";
    ASSERT_TRUE(exportResults(dir + "j1.json", "unit_test", {{"scale", "1"}},
                              specs, serial));
    ASSERT_TRUE(exportResults(dir + "j4.json", "unit_test", {{"scale", "1"}},
                              specs, parallel));
    const std::string j1 = slurp(dir + "j1.json");
    EXPECT_NE(j1.find("\"tag\": \"b/ida\""), std::string::npos);
    EXPECT_EQ(j1, slurp(dir + "j4.json"));
}

TEST(Batch, ResultsIndexedBySpecOrderNotCompletionOrder)
{
    const auto specs = tinyMatrix();
    const auto out = runMatrix(specs, quiet(3));
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.results[0].workload, "a");
    EXPECT_EQ(out.results[0].system, "Baseline");
    EXPECT_EQ(out.results[1].system, "IDA-E20");
    EXPECT_EQ(out.results[2].workload, "b");
}

TEST(Batch, ThrowingSpecIsReportedWithoutAbortingTheBatch)
{
    auto specs = tinyMatrix();
    specs[1].preset.synth.footprintPages = 0; // checkSpec throws

    const auto out = runMatrix(specs, quiet(2));
    EXPECT_FALSE(out.ok());
    EXPECT_EQ(out.failed, 1u);
    ASSERT_EQ(out.errors.size(), specs.size());
    EXPECT_TRUE(out.errors[0].empty());
    EXPECT_NE(out.errors[1].find("footprint"), std::string::npos);
    EXPECT_TRUE(out.errors[2].empty());
    EXPECT_TRUE(out.errors[3].empty());
    // The failed slot stays default; its neighbours completed normally.
    EXPECT_EQ(out.results[1].measuredReads, 0u);
    EXPECT_GT(out.results[0].measuredReads, 0u);
    EXPECT_GT(out.results[3].measuredReads, 0u);
}

TEST(Batch, ClosedLoopSpecsRunThroughTheMatrix)
{
    RunSpec s;
    s.device = ssd::SsdConfig::tiny();
    s.preset = tinyPreset("cl", 0.9, 21);
    s.tag = "cl/base";
    s.kind = RunKind::ClosedLoop;
    s.queueDepth = 4;

    // Identical spec through two separate matrices (a single matrix
    // would reject the duplicate tag): same tag => same derived seed =>
    // bit-identical measurements.
    const auto a = runMatrix({s}, quiet(1));
    const auto b = runMatrix({s}, quiet(1));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_GT(a.results[0].throughputMBps, 0.0);
    EXPECT_EQ(a.results[0].toJson(false), b.results[0].toJson(false));
}

TEST(Batch, DuplicateTagsAreRejectedNotSilentlyReplayed)
{
    auto specs = tinyMatrix();
    specs.push_back(specs[0]); // same tag, would collide on seed
    RunSpec untagged;
    untagged.device = ssd::SsdConfig::tiny();
    untagged.preset = tinyPreset("u", 0.9, 33);
    // Empty tags never collide (they keep the configured seed), so two
    // of them coexist.
    specs.push_back(untagged);
    specs.push_back(untagged);

    const auto out = runMatrix(specs, quiet(2));
    EXPECT_FALSE(out.ok());
    EXPECT_EQ(out.failed, 1u);
    ASSERT_EQ(out.errors.size(), specs.size());
    const std::size_t dup = specs.size() - 3;
    EXPECT_NE(out.errors[dup].find("duplicate tag"), std::string::npos);
    EXPECT_NE(out.errors[dup].find(specs[0].tag), std::string::npos);
    // The duplicate never ran; the first occurrence and everyone else
    // completed normally.
    EXPECT_EQ(out.results[dup].measuredReads, 0u);
    EXPECT_GT(out.results[0].measuredReads, 0u);
    EXPECT_TRUE(out.errors[specs.size() - 2].empty());
    EXPECT_TRUE(out.errors[specs.size() - 1].empty());
    EXPECT_GT(out.results[specs.size() - 1].measuredReads, 0u);
}

TEST(Batch, SeedFromTagIsStableAndTagSensitive)
{
    EXPECT_EQ(seedFromTag(""), 0u);
    EXPECT_EQ(seedFromTag("proj_1/base"), seedFromTag("proj_1/base"));
    EXPECT_NE(seedFromTag("proj_1/base"), seedFromTag("proj_1/ida"));
    EXPECT_NE(seedFromTag("a"), seedFromTag("b"));
}

/** jobsFromArgs over a command line of @p args after the program name. */
int
parseJobsArgs(std::vector<const char *> args)
{
    args.insert(args.begin(), "prog");
    return jobsFromArgs(static_cast<int>(args.size()),
                        const_cast<char **>(args.data()));
}

TEST(Batch, JobsFromArgsParsesCommonSpellings)
{
    EXPECT_EQ(parseJobsArgs({}), 0);
    EXPECT_EQ(parseJobsArgs({"--jobs", "4"}), 4);
    EXPECT_EQ(parseJobsArgs({"--jobs=8"}), 8);
    EXPECT_EQ(parseJobsArgs({"-j3"}), 3);
    EXPECT_EQ(parseJobsArgs({"-j", "5"}), 5);
    EXPECT_EQ(parseJobsArgs({"--other", "-j2"}), 2);
    // The whole int range parses; nothing here builds a pool.
    EXPECT_EQ(parseJobsArgs({"--jobs", "2147483647"}), 2147483647);
}

TEST(BatchDeath, MalformedJobsOptionIsFatal)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    for (const char *bad :
         {"4x", "0", "-2", "", "2147483648", "99999999999999999999"}) {
        EXPECT_EXIT(parseJobsArgs({"--jobs", bad}),
                    ::testing::ExitedWithCode(1),
                    std::string("--jobs expects a positive integer, got '") +
                        bad + "'")
            << bad;
    }
    EXPECT_EXIT(parseJobsArgs({"--jobs=4x"}), ::testing::ExitedWithCode(1),
                "--jobs expects a positive integer, got '4x'");
    EXPECT_EXIT(parseJobsArgs({"-j3.5"}), ::testing::ExitedWithCode(1),
                "-j expects a positive integer, got '3.5'");
}

TEST(Batch, DefaultJobsReadsIdaJobs)
{
    const char *prev = std::getenv("IDA_JOBS");
    const std::string saved = prev ? prev : "";
    const bool wasSet = prev != nullptr;
    ::setenv("IDA_JOBS", "3", 1);
    EXPECT_EQ(defaultJobs(), 3);
    ::unsetenv("IDA_JOBS");
    EXPECT_GE(defaultJobs(), 1);
    if (wasSet)
        ::setenv("IDA_JOBS", saved.c_str(), 1);
}

TEST(BatchDeath, MalformedIdaJobsIsFatal)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    for (const char *bad : {"abc", "0", "4x", "-1", "2147483648"}) {
        EXPECT_EXIT(
            {
                ::setenv("IDA_JOBS", bad, 1);
                defaultJobs();
            },
            ::testing::ExitedWithCode(1),
            std::string("IDA_JOBS expects a positive integer, got '") +
                bad + "'")
            << bad;
    }
}

TEST(Batch, PositiveKnobsParseWholeValues)
{
    EXPECT_EQ(parsePositiveInt("50", "seeds"), 50);
    EXPECT_EQ(parsePositiveInt("4294967296", "ops"), 4294967296LL);
    EXPECT_DOUBLE_EQ(parsePositiveReal("0.08", "scale"), 0.08);
    EXPECT_DOUBLE_EQ(parsePositiveReal("2", "scale"), 2.0);
}

TEST(BatchDeath, MalformedScaleKnobIsFatal)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    for (const char *bad : {"", "abc", "0.5x", "0", "-0.3", "inf", "nan"}) {
        EXPECT_EXIT(parsePositiveReal(bad, "IDA_BENCH_SCALE"),
                    ::testing::ExitedWithCode(1),
                    std::string("IDA_BENCH_SCALE expects a positive "
                                "number, got '") +
                        bad + "'")
            << bad;
    }
}

TEST(JsonWriter, EscapeRoundTripsEveryByteClass)
{
    const std::string nasty =
        "quote\" backslash\\ newline\n tab\t cr\r ctrl\x01 end";
    const std::string escaped = stats::jsonEscape(nasty);
    // No raw control characters or quotes survive in the escaped form.
    for (char c : escaped) {
        EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
        EXPECT_NE(c, '\n');
    }
    EXPECT_NE(escaped.find("\\\""), std::string::npos);
    EXPECT_NE(escaped.find("\\\\"), std::string::npos);
    EXPECT_NE(escaped.find("\\n"), std::string::npos);
    EXPECT_NE(escaped.find("\\u0001"), std::string::npos);
    EXPECT_EQ(stats::jsonUnescape(escaped), nasty);
}

TEST(JsonWriter, EmitsStructuredDocuments)
{
    std::ostringstream os;
    stats::JsonWriter w(os, 0);
    w.beginObject();
    w.field("s", "x");
    w.field("i", std::uint64_t{42});
    w.field("d", 1.5);
    w.field("b", true);
    w.key("a");
    w.beginArray();
    w.value(std::uint64_t{1});
    w.value(std::uint64_t{2});
    w.endArray();
    w.endObject();
    EXPECT_TRUE(w.done());
    EXPECT_EQ(os.str(), "{\n\"s\": \"x\",\n\"i\": 42,\n\"d\": 1.5,\n"
                        "\"b\": true,\n\"a\": [\n1,\n2\n]\n}\n");
}

TEST(JsonWriter, RunResultJsonRoundTripsEscapedNames)
{
    RunResult r;
    r.workload = "we\"ird\\work\nload";
    r.system = "sys\tem";
    r.readRespUs = 123.25;
    r.measuredReads = 7;

    const std::string json = r.toJson();
    // Extract the encoded "workload" string literal and decode it back.
    const std::string key = "\"workload\": \"";
    const auto start = json.find(key) + key.size();
    ASSERT_NE(start, std::string::npos);
    std::size_t end = start;
    while (json[end] != '"' || json[end - 1] == '\\')
        ++end;
    EXPECT_EQ(stats::jsonUnescape(json.substr(start, end - start)),
              r.workload);
    // Numbers serialize in round-trippable shortest form.
    EXPECT_NE(json.find("\"readRespUs\": 123.25"), std::string::npos);
    EXPECT_NE(json.find("\"measuredReads\": 7"), std::string::npos);
    // Volatile fields are present by default and absent in archive form.
    EXPECT_NE(json.find("wallSeconds"), std::string::npos);
    EXPECT_EQ(r.toJson(false).find("wallSeconds"), std::string::npos);
}

TEST(JsonWriter, ExportResultsWritesWellFormedFile)
{
    const auto specs = tinyMatrix();
    const auto out = runMatrix(specs, quiet(2));
    ASSERT_TRUE(out.ok());

    const std::string path =
        testing::TempDir() + "/ida_batch_export/deep/out.json";
    ASSERT_TRUE(exportResults(path, "unit_test",
                              {{"scale", "0.35"}}, specs, out));

    const std::string json = slurp(path);
    EXPECT_NE(json.find("\"harness\": \"unit_test\""), std::string::npos);
    EXPECT_NE(json.find("\"scale\": \"0.35\""), std::string::npos);
    EXPECT_NE(json.find("\"tag\": \"a/base\""), std::string::npos);
    // Volatile fields never reach the archive.
    EXPECT_EQ(json.find("wallSeconds"), std::string::npos);
}

} // namespace
} // namespace ida::workload
