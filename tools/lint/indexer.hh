/**
 * @file
 * ida-lint whole-program indexer: a heuristic, compiler-free C++
 * symbol extractor.
 *
 * One pass over a FileView's stripped token stream recovers, per
 * translation unit:
 *
 *   - function definitions with their qualified names (namespace and
 *     class scopes are tracked, so an out-of-class `Ftl::refreshScan`
 *     inside `namespace ida::ftl` indexes as
 *     `ida::ftl::Ftl::refreshScan`);
 *   - call sites inside each body — plain calls, qualified calls,
 *     member calls through `.`/`->`, and calls made inside lambda
 *     bodies, which are attributed to the *defining* function (that is
 *     exactly right for the InlineCallback idiom: the closure a
 *     dispatch function parks on the event queue is hot-path code);
 *   - "event" sites the graph rules care about: heap traffic
 *     (new/delete/malloc/make_unique/make_shared), std::function,
 *     throw/try/catch, RNG constructions, and mutable function-local
 *     statics;
 *   - namespace-scope mutable variable definitions (class members and
 *     const/constexpr tables are deliberately out of scope);
 *   - the v2 annotations (hot-path-root / shard-root / rng-factory /
 *     shared(...)) bound to the functions and variables they precede.
 *
 * The parser is intentionally approximate — it never needs to run the
 * preprocessor or resolve types — and it fails open: a construct it
 * cannot parse contributes no symbols rather than a wrong one. The
 * unit tests in tests/test_lint.cc pin the constructs the real tree
 * relies on (templates, overloads, ctor initializer lists, lambdas).
 */
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "source_view.hh"

namespace idalint {

/** A lexical token from a FileView's code channel. */
struct Tok
{
    std::string text;
    std::size_t line; // 1-based
    bool ident;       // identifier-or-number vs punctuation
};

std::vector<Tok> tokenize(const FileView &v);

/** Classes of interesting operations a function body can contain. */
enum class EventKind {
    Alloc,       // new/delete/malloc/calloc/realloc/free/make_unique/..
    StdFunction, // std::function use
    Exception,   // throw / try / catch
    RngConstruct, // sim::Rng{...} or a std engine constructed inline
    LocalStatic, // mutable function-local static
};

struct EventSite
{
    EventKind kind;
    std::string token; // the offending token, e.g. "std::make_unique"
    std::size_t line;
    std::string name; // LocalStatic: the variable name
};

struct CallSite
{
    std::string name; // as written: "helper", "sim::fatal", "runUntil"
    std::size_t line;
};

/** One indexed function definition. */
struct FunctionInfo
{
    std::string qualName; // ida::ftl::Ftl::refreshScan
    std::string lastName; // refreshScan
    std::string file;     // root-relative path
    std::size_t nameLine = 0;
    std::size_t endLine = 0;
    bool hotRoot = false;
    bool shardRoot = false;
    bool rngFactory = false;
    std::vector<CallSite> calls;
    std::vector<EventSite> events;
    std::set<std::string> refs; // every identifier in the body
};

/** One namespace-scope mutable variable definition. */
struct GlobalVar
{
    std::string name;
    std::string qualName;
    std::string file;
    std::size_t line = 0;
    bool hasShared = false;
    std::string sharedKind;
};

/** Everything the indexer recovered from one file. */
struct FileIndex
{
    std::string rel;
    FileView view;
    Suppressions sup;
    Annotations annots;
    std::vector<FunctionInfo> functions;
    std::vector<GlobalVar> globals;
};

/** Index @p view (already stripped) as root-relative path @p rel. */
FileIndex indexFile(FileView view, const std::string &rel);

/** The merged whole-program index. */
struct Index
{
    std::vector<FileIndex> files;
};

} // namespace idalint
