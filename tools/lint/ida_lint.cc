/**
 * @file
 * ida-lint driver: the project's custom static-analysis gate.
 *
 * A whole-program analyzer. Every translation unit under the root is
 * stripped (source_view), indexed into functions, call sites, event
 * sites, and globals (indexer), linked into a name-resolved symbol
 * graph (graph), and checked by two rule packs (rules):
 *
 *   - IDA004–IDA008: per-line regex rules, scoped by directory;
 *   - IDA009–IDA012: reachability rules from the annotated hot-path
 *     and shard-worker root sets, with call-chain witnesses.
 *
 * docs/LINTING.md is the rule catalogue; tests/lint_fixtures/ holds a
 * known-bad snippet per rule and tests/test_lint.cc pins the exact
 * findings each fixture must produce.
 *
 * Exit status: 0 when no rule fired, 1 when any did, 2 on usage
 * errors. Text output format (one finding per line, pinned by
 * tests/test_lint.cc):
 *
 *     <path>:<line>: <rule-id>: <message> [<rule-name>]
 */
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "graph.hh"
#include "indexer.hh"
#include "rules.hh"

namespace fs = std::filesystem;

namespace {

using namespace idalint;

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.rfind(prefix, 0) == 0;
}

bool
skippable(const std::string &rel)
{
    // Out-of-tree artifacts and the intentionally-bad lint fixtures.
    return rel.find("lint_fixtures") != std::string::npos ||
           startsWith(rel, "build") || rel.find("/build") == 0;
}

void
collect(const fs::path &root, const fs::path &dir,
        std::vector<fs::path> &files)
{
    if (!fs::exists(dir))
        return;
    for (const auto &e : fs::recursive_directory_iterator(dir)) {
        if (!e.is_regular_file())
            continue;
        const auto ext = e.path().extension().string();
        if (ext != ".cc" && ext != ".hh" && ext != ".cpp" && ext != ".h")
            continue;
        const std::string rel =
            fs::relative(e.path(), root).generic_string();
        if (skippable(rel))
            continue;
        files.push_back(e.path());
    }
}

int
usage()
{
    std::cerr
        << "usage: ida_lint [--root DIR] [--list-rules]\n"
        << "                [--list-rule-ids] [--dump-index]\n"
        << "                [FILE...]\n"
        << "\n"
        << "With no FILEs, scans src/ tests/ bench/ examples/ tools/\n"
        << "under the root (default: current directory), skipping\n"
        << "tests/lint_fixtures. Paths in findings are root-relative.\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    fs::path root = fs::current_path();
    std::vector<fs::path> explicitFiles;
    bool listRules = false;
    bool listRuleIds = false;
    bool dumpIndex = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--root" && i + 1 < argc) {
            root = fs::path(argv[++i]);
        } else if (arg == "--list-rules") {
            listRules = true;
        } else if (arg == "--list-rule-ids") {
            listRuleIds = true;
        } else if (arg == "--dump-index") {
            dumpIndex = true;
        } else if (arg == "--help" || arg == "-h") {
            return usage();
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else {
            explicitFiles.emplace_back(arg);
        }
    }
    root = fs::absolute(root).lexically_normal();

    if (listRules || listRuleIds) {
        for (const RuleInfo &r : allRules()) {
            if (listRuleIds)
                std::cout << r.id << "\n";
            else
                std::cout << r.id << "  " << r.name << "\n    "
                          << r.message << "\n";
        }
        return 0;
    }

    std::vector<fs::path> files;
    if (!explicitFiles.empty()) {
        for (auto &f : explicitFiles)
            files.push_back(fs::absolute(f));
    } else {
        for (const char *d : {"src", "tests", "bench", "examples", "tools"})
            collect(root, root / d, files);
    }
    std::sort(files.begin(), files.end());

    Index idx;
    std::vector<Finding> findings;
    for (const auto &f : files) {
        std::string rel = fs::relative(f, root).generic_string();
        if (startsWith(rel, "..")) // outside root: report as given
            rel = f.generic_string();
        std::ifstream in(f);
        if (!in) {
            findings.push_back(
                {rel, 0, "IDA000", "cannot open file", "io-error"});
            continue;
        }
        idx.files.push_back(indexFile(stripSource(in), rel));
    }

    if (dumpIndex) {
        // Debug view of what the indexer recovered (not a stable
        // interface).
        for (const FileIndex &fi : idx.files) {
            std::cout << fi.rel << "\n";
            for (const FunctionInfo &fn : fi.functions) {
                std::cout << "  fn " << fn.qualName << " ["
                          << fn.nameLine << "-" << fn.endLine << "]"
                          << (fn.hotRoot ? " hot-root" : "")
                          << (fn.shardRoot ? " shard-root" : "")
                          << (fn.rngFactory ? " rng-factory" : "")
                          << " calls=" << fn.calls.size()
                          << " events=" << fn.events.size() << "\n";
            }
            for (const GlobalVar &gv : fi.globals)
                std::cout << "  global " << gv.qualName << " @"
                          << gv.line
                          << (gv.hasShared ? " shared(" + gv.sharedKind +
                                                 ")"
                                           : "")
                          << "\n";
        }
        return 0;
    }

    for (const FileIndex &fi : idx.files)
        runLineRules(fi, findings);
    const SymbolGraph graph = SymbolGraph::build(idx);
    runGraphRules(idx, graph, findings);
    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.path != b.path)
                      return a.path < b.path;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });

    for (const Finding &fd : findings)
        std::cout << fd.path << ':' << fd.line << ": " << fd.rule << ": "
                  << fd.message << " [" << fd.ruleName << "]\n";
    if (!findings.empty()) {
        std::cerr << "ida-lint: " << findings.size() << " finding"
                  << (findings.size() == 1 ? "" : "s") << "\n";
        return 1;
    }
    return 0;
}
