/**
 * @file
 * ida-lint rule packs.
 *
 * Two layers share one Finding type:
 *
 *   - the per-line rules (IDA004–IDA008): regex matches over the
 *     stripped code channel, scoped by directory (library or
 *     everywhere);
 *   - the graph rules (IDA009–IDA012): reachability queries over the
 *     SymbolGraph, with a call-chain witness embedded in the finding
 *     message. "Hot" means reachable from an annotated hot-path root;
 *     no directory list says it.
 */
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "graph.hh"
#include "indexer.hh"

namespace idalint {

struct Finding
{
    std::string path; // root-relative, '/'-separated
    std::size_t line; // 1-based
    std::string rule;
    std::string message;
    std::string ruleName;
};

/** Catalogue entry for --list-rules (line and graph rules alike). */
struct RuleInfo
{
    std::string id;
    std::string name;
    std::string message;
};

/** The full registered rule pack, IDA004..IDA012, in id order. */
std::vector<RuleInfo> allRules();

/** Run the per-line rule pack (IDA004–IDA008) over one file. */
void runLineRules(const FileIndex &fi, std::vector<Finding> &out);

/** Run the graph rule pack (IDA009–IDA012) over the whole index. */
void runGraphRules(const Index &idx, const SymbolGraph &g,
                   std::vector<Finding> &out);

} // namespace idalint
