/**
 * @file
 * ida-lint symbol graph: name-resolved call edges over the whole-
 * program Index, plus transitive reachability with witness chains.
 *
 * Resolution is by name, not by type: an unqualified call site links
 * to every indexed function with that last name (overloads merge into
 * one node set — a conservative over-approximation, which is the right
 * direction for a gate), and a qualified call site (`sim::fatal`,
 * `Ftl::refreshScan`) links only to functions whose qualified name
 * ends with the written chain on a `::` boundary. Unresolved names
 * (std:: library calls, macros) simply contribute no edge.
 *
 * Reachability keeps a parent pointer per node so every graph-rule
 * finding can print the call chain that makes it reachable:
 *
 *     Ssd::submitBatch -> stage -> grow : new
 */
#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "indexer.hh"

namespace idalint {

/** One graph node: a function plus the file it was indexed from. */
struct GraphNode
{
    const FunctionInfo *fn;
    const FileIndex *file;
};

class SymbolGraph
{
  public:
    /** Build nodes and resolved call edges from @p idx. The index
     *  must outlive the graph (nodes hold pointers into it). */
    static SymbolGraph build(const Index &idx);

    std::size_t
    size() const
    {
        return nodes_.size();
    }

    const GraphNode &
    node(std::size_t i) const
    {
        return nodes_[i];
    }

    const std::vector<std::size_t> &
    callees(std::size_t i) const
    {
        return edges_[i];
    }

    /** Node ids a call site written as @p name can land on. */
    std::vector<std::size_t> resolve(const std::string &name) const;

  private:
    std::vector<GraphNode> nodes_;
    std::vector<std::vector<std::size_t>> edges_;
    std::unordered_map<std::string, std::vector<std::size_t>> byLast_;
};

/** BFS result: parent[i] is kUnreachable, kRoot, or the parent node. */
struct Reachability
{
    static constexpr int kUnreachable = -2;
    static constexpr int kRoot = -1;

    std::vector<int> parent;

    bool
    reached(std::size_t i) const
    {
        return parent[i] != kUnreachable;
    }
};

Reachability reachableFrom(const SymbolGraph &g,
                           const std::vector<std::size_t> &roots);

/** "root -> caller -> callee" witness for a reached @p node. */
std::string witnessChain(const SymbolGraph &g, const Reachability &r,
                         std::size_t node);

} // namespace idalint
