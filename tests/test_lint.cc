/**
 * @file
 * Tests for the ida-lint analyzer (tools/lint/).
 *
 * Two layers:
 *
 *   - unit tests against ida_lint_core directly (the indexer's
 *     call-edge extraction, the symbol graph's resolution and
 *     reachability) — these pin the machinery the graph rules
 *     IDA009–IDA012 are built on;
 *   - end-to-end tests that shell out to the real binary: each fixture
 *     under tests/lint_fixtures/ is a known-bad file for one rule, and
 *     the tests pin the exact findings — rule id AND line number — so
 *     a rule that silently stops firing (or starts firing on the wrong
 *     line) fails the suite, not just the lint job. The directory
 *     layout under lint_fixtures mirrors the real tree (src/sim,
 *     src/stats, ...) so path-scoped rules apply exactly as they do in
 *     production; scanning with `--root lint_fixtures` makes those
 *     relative paths line up.
 *
 * The build injects IDA_LINT_BIN (the freshly built scanner) and
 * IDA_REPO_ROOT; tests/CMakeLists.txt makes idaflash_tests depend on
 * the ida_lint target so the binary is never stale.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "graph.hh"
#include "indexer.hh"
#include "source_view.hh"

namespace {

struct LintRun
{
    int exitCode = -1;
    std::string out;
};

/** Run the scanner with @p args appended; capture stdout + exit code. */
LintRun
runLint(const std::string &args)
{
    const std::string cmd =
        std::string(IDA_LINT_BIN) + " " + args + " 2>/dev/null";
    LintRun r;
    FILE *p = popen(cmd.c_str(), "r");
    if (!p)
        return r;
    std::array<char, 4096> buf;
    std::size_t n;
    while ((n = fread(buf.data(), 1, buf.size(), p)) > 0)
        r.out.append(buf.data(), n);
    const int st = pclose(p);
    r.exitCode = (st >= 0 && WIFEXITED(st)) ? WEXITSTATUS(st) : -1;
    return r;
}

std::string
fixtureRoot()
{
    return std::string(IDA_REPO_ROOT) + "/tests/lint_fixtures";
}

/** (line, rule-id) pairs parsed from scanner output, input order. */
std::vector<std::pair<int, std::string>>
parseFindings(const std::string &out)
{
    std::vector<std::pair<int, std::string>> v;
    std::size_t pos = 0;
    while (pos < out.size()) {
        std::size_t eol = out.find('\n', pos);
        if (eol == std::string::npos)
            eol = out.size();
        const std::string line = out.substr(pos, eol - pos);
        pos = eol + 1;
        // <path>:<line>: <rule>: <message> [<name>]
        const std::size_t c1 = line.find(':');
        if (c1 == std::string::npos)
            continue;
        const std::size_t c2 = line.find(':', c1 + 1);
        const std::size_t c3 = line.find(':', c2 + 1);
        if (c2 == std::string::npos || c3 == std::string::npos)
            continue;
        v.emplace_back(std::stoi(line.substr(c1 + 1, c2 - c1 - 1)),
                       line.substr(c2 + 2, c3 - c2 - 2));
    }
    return v;
}

/** Scan one fixture file and pin its exact (line, rule) findings. */
void
expectFindings(const std::string &relFixture,
               std::vector<std::pair<int, std::string>> expected)
{
    const LintRun r = runLint("--root " + fixtureRoot() + " " +
                              fixtureRoot() + "/" + relFixture);
    auto got = parseFindings(r.out);
    std::sort(got.begin(), got.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(got, expected) << "scanner output was:\n" << r.out;
    EXPECT_EQ(r.exitCode, expected.empty() ? 0 : 1);
}

TEST(Lint, ListRulesNamesTheWholePack)
{
    const LintRun r = runLint("--list-rules");
    EXPECT_EQ(r.exitCode, 0);
    for (const char *id : {"IDA004", "IDA005", "IDA006", "IDA007",
                           "IDA008", "IDA009", "IDA010", "IDA011",
                           "IDA012"})
        EXPECT_NE(r.out.find(id), std::string::npos) << id;
}

TEST(Lint, ListRuleIdsIsMachineReadable)
{
    // run_lint.sh's rule-coverage self-check consumes this: one bare
    // id per line, nothing else.
    const LintRun r = runLint("--list-rule-ids");
    EXPECT_EQ(r.exitCode, 0);
    EXPECT_EQ(r.out, "IDA004\nIDA005\nIDA006\nIDA007\nIDA008\nIDA009\n"
                     "IDA010\nIDA011\nIDA012\n");
}

TEST(Lint, UnseededRngAnywhere)
{
    expectFindings("src/stats/bad_rng.cc",
                   {{14, "IDA004"},
                    {15, "IDA004"},
                    {17, "IDA004"},
                    {18, "IDA004"}});
}

TEST(Lint, RawTimeLiterals)
{
    expectFindings("src/workload/bad_time_literal.cc",
                   {{11, "IDA005"}, {12, "IDA005"}});
}

TEST(Lint, IncludeHygiene)
{
    // Line 1 is the missing-#pragma-once finding; 4 and 5 are the
    // parent-relative include and the C compat header. The include
    // path lives inside a string literal — this also pins that the
    // stripper keeps preprocessor lines matchable.
    expectFindings("src/util/bad_includes.hh",
                   {{1, "IDA006"}, {4, "IDA006"}, {5, "IDA006"}});
}

TEST(Lint, BannedApis)
{
    expectFindings("tools/bad_api.cc", {{10, "IDA007"}, {11, "IDA007"}});
}

TEST(Lint, ConsoleIoInLibrary)
{
    expectFindings("src/stats/bad_console.cc",
                   {{12, "IDA008"}, {13, "IDA008"}});
}

TEST(Lint, TranscendentalMathInHotPath)
{
    // Line 20's constructor-only std::log must NOT appear, with no
    // allow(): the rule targets math a hot-path root reaches.
    expectFindings("src/ftl/bad_transcendental.cc",
                   {{26, "IDA009"}, {32, "IDA009"}});
}

TEST(Lint, SuppressionsSilenceEveryForm)
{
    // allow-file, same-line allow, and previous-comment-line allow:
    // all three forms are exercised and every finding is silenced.
    expectFindings("src/sim/suppressed_ok.cc", {});
}

// ---- graph rules (IDA009–IDA012), end to end ----------------------

TEST(Lint, GraphSeesAllocTwoCallsBelowDispatchRoot)
{
    // delete[], new, malloc, free, std::function, try, throw and catch
    // two calls below the annotated root each fire. The deleted copy
    // constructor (line 15) and the same kinds in the unreached
    // rebuild() (lines 60-63) must NOT appear.
    expectFindings("src/ssd/bad_reachable_alloc.cc",
                   {{43, "IDA010"},
                    {44, "IDA010"},
                    {45, "IDA010"},
                    {46, "IDA010"},
                    {47, "IDA010"},
                    {48, "IDA010"},
                    {50, "IDA010"},
                    {51, "IDA010"}});
}

TEST(Lint, ShardReachableSharedStateIsFlagged)
{
    // Unannotated global (9), unknown shared(...) kind (15), and
    // mutable function-local static (23). The shared(atomic) global
    // on line 12 must NOT appear.
    expectFindings("src/fleet/bad_shared_state.cc",
                   {{9, "IDA011"}, {15, "IDA011"}, {23, "IDA011"}});
}

TEST(Lint, RngConstructionOutsideFactoryIsFlagged)
{
    // Both the project Rng and a raw std engine; the rng-factory
    // function on line 19 must NOT appear.
    expectFindings("src/workload/bad_rng_factory.cc",
                   {{27, "IDA012"}, {28, "IDA012"}});
}

TEST(Lint, GraphSuppressionsSilenceEveryForm)
{
    // Same-line and previous-line allow(IDA010), allow(IDA009),
    // shared(mutex), allow(IDA011) on a local static, and
    // allow(IDA012): all forms exercised, zero findings.
    expectFindings("src/ssd/suppressed_graph_ok.cc", {});
}

TEST(Lint, RepoTreeIsClean)
{
    // The self-check the CI lint job runs: the real tree must scan
    // clean. A new violation anywhere in src/tests/bench/examples/
    // tools fails this test with the offending findings printed.
    const LintRun r = runLint(std::string("--root ") + IDA_REPO_ROOT);
    EXPECT_EQ(r.exitCode, 0) << "tree has lint findings:\n" << r.out;
    EXPECT_TRUE(r.out.empty()) << r.out;
}

// ---- ida_lint_core unit tests -------------------------------------

using idalint::FileIndex;
using idalint::FunctionInfo;
using idalint::Index;
using idalint::Reachability;
using idalint::SymbolGraph;

FileIndex
indexText(const std::string &text, const std::string &rel)
{
    return idalint::indexFile(idalint::stripSourceText(text), rel);
}

const FunctionInfo *
findFn(const FileIndex &fi, const std::string &qual)
{
    for (const FunctionInfo &fn : fi.functions) {
        if (fn.qualName == qual)
            return &fn;
    }
    return nullptr;
}

bool
callsName(const FunctionInfo &fn, const std::string &name)
{
    for (const auto &c : fn.calls) {
        if (c.name == name)
            return true;
    }
    return false;
}

TEST(LintIndex, ExtractsPlainQualifiedMemberAndTemplateCalls)
{
    const FileIndex fi = indexText(R"(
        namespace a {
        struct W { void member(); };
        void helper(int) {}
        template <typename T> T cast(int v) { return T(v); }
        void driver(W &w) {
            helper(1);
            sim::fatal("x");
            w.member();
            cast<long>(2);
        }
        } // namespace a
    )",
                                   "src/sim/t.cc");
    const FunctionInfo *driver = findFn(fi, "a::driver");
    ASSERT_NE(driver, nullptr);
    EXPECT_TRUE(callsName(*driver, "helper"));
    EXPECT_TRUE(callsName(*driver, "sim::fatal"));
    EXPECT_TRUE(callsName(*driver, "member"));
    EXPECT_TRUE(callsName(*driver, "cast")) << "templated call lost";
}

TEST(LintIndex, LambdaBodiesBelongToTheDefiningFunction)
{
    // The InlineCallback idiom: the closure a dispatch function parks
    // on the event queue is that function's code, so its calls (and
    // allocations) must be attributed to the definer.
    const FileIndex fi = indexText(R"(
        namespace a {
        void deep() {}
        void dispatch() {
            schedule(now, [&] {
                deep();
                auto *p = new int;
            });
        }
        } // namespace a
    )",
                                   "src/sim/t.cc");
    const FunctionInfo *dispatch = findFn(fi, "a::dispatch");
    ASSERT_NE(dispatch, nullptr);
    EXPECT_TRUE(callsName(*dispatch, "deep"));
    bool sawAlloc = false;
    for (const auto &ev : dispatch->events)
        sawAlloc |= ev.kind == idalint::EventKind::Alloc;
    EXPECT_TRUE(sawAlloc);
}

TEST(LintIndex, CtorInitializerListsAreScanned)
{
    const FileIndex fi = indexText(R"(
        namespace a {
        struct S {
            S();
            int x_;
        };
        S::S() : x_(seedOf(7)) {}
        } // namespace a
    )",
                                   "src/sim/t.cc");
    const FunctionInfo *ctor = findFn(fi, "a::S::S");
    ASSERT_NE(ctor, nullptr);
    EXPECT_TRUE(callsName(*ctor, "seedOf"));
}

TEST(LintIndex, AnnotationsBindToTheNextDefinition)
{
    const FileIndex fi = indexText(R"(
        namespace a {
        // ida-lint: hot-path-root
        void root() {}
        // ida-lint: shard-root
        void worker() {}
        // ida-lint: rng-factory
        void factory() {}
        void plain() {}
        } // namespace a
    )",
                                   "src/sim/t.cc");
    EXPECT_TRUE(findFn(fi, "a::root")->hotRoot);
    EXPECT_TRUE(findFn(fi, "a::worker")->shardRoot);
    EXPECT_TRUE(findFn(fi, "a::factory")->rngFactory);
    const FunctionInfo *plain = findFn(fi, "a::plain");
    EXPECT_FALSE(plain->hotRoot || plain->shardRoot ||
                 plain->rngFactory);
}

TEST(LintGraph, ReachabilityFollowsEdgesAndSurvivesCycles)
{
    Index idx;
    idx.files.push_back(indexText(R"(
        namespace a {
        void leaf() {}
        void ping(int n) { if (n) pong(n - 1); }
        void pong(int n) { ping(n); leaf(); }
        // ida-lint: hot-path-root
        void root() { ping(3); }
        void island() { leaf(); }
        } // namespace a
    )",
                                  "src/sim/t.cc"));
    const SymbolGraph g = SymbolGraph::build(idx);
    std::vector<std::size_t> roots;
    for (std::size_t i = 0; i < g.size(); ++i) {
        if (g.node(i).fn->hotRoot)
            roots.push_back(i);
    }
    ASSERT_EQ(roots.size(), 1u);
    const Reachability r = idalint::reachableFrom(g, roots);
    const auto reachedByQual = [&](const std::string &q) {
        for (std::size_t i = 0; i < g.size(); ++i) {
            if (g.node(i).fn->qualName == q)
                return r.reached(i);
        }
        return false;
    };
    EXPECT_TRUE(reachedByQual("a::root"));
    EXPECT_TRUE(reachedByQual("a::ping"));
    EXPECT_TRUE(reachedByQual("a::pong")); // via the cycle
    EXPECT_TRUE(reachedByQual("a::leaf"));
    EXPECT_FALSE(reachedByQual("a::island"));
    // The witness chain walks parents back to the root.
    for (std::size_t i = 0; i < g.size(); ++i) {
        if (g.node(i).fn->qualName == "a::leaf") {
            const std::string chain = idalint::witnessChain(g, r, i);
            EXPECT_EQ(chain.substr(0, 7), "a::root") << chain;
            EXPECT_NE(chain.find("a::leaf"), std::string::npos);
        }
    }
}

TEST(LintGraph, QualifiedCallsResolveBySuffixOnly)
{
    Index idx;
    idx.files.push_back(indexText(R"(
        namespace a { struct T { void go(); }; void T::go() {} }
        namespace b { struct T { void go(); }; void T::go() {} }
    )",
                                  "src/sim/t.cc"));
    const SymbolGraph g = SymbolGraph::build(idx);
    EXPECT_EQ(g.resolve("a::T::go").size(), 1u);
    EXPECT_EQ(g.resolve("b::T::go").size(), 1u);
    // Unqualified: overloads/homonyms merge (conservative).
    EXPECT_EQ(g.resolve("go").size(), 2u);
    EXPECT_TRUE(g.resolve("c::T::go").empty());
}

} // namespace
