/**
 * @file
 * ida-lint text layer: comment/string stripping, suppression comments,
 * and the annotation grammar.
 *
 * Everything downstream (the per-line rule pack in rules.cc and the
 * whole-program indexer in indexer.cc) works on a FileView: `code` has
 * comments, string and character literals blanked with spaces (line
 * count preserved) so prose and format strings never trip a rule;
 * `comments` has only the comment text, which is where suppressions
 * and annotations live.
 *
 * Comment grammar (all forms start with "ida-lint:"):
 *
 *   allow(IDA010) why...        silence a rule on this line (a
 *                               comment-only line blesses the next)
 *   allow-file(IDA004)          silence a rule for the whole file
 *   hot-path-root               the next function definition is a
 *                               dispatch-path root for IDA009/IDA010
 *   shard-root                  the next function definition is a
 *                               shard-worker root for IDA011
 *   rng-factory                 the next function definition is a
 *                               tag-seeded RNG factory (IDA012)
 *   shared(mutex|atomic|epoch-barrier)
 *                               the global/static declared on this
 *                               line (or the next) is deliberately
 *                               shared state, guarded as named
 */
#pragma once

#include <cstddef>
#include <iosfwd>
#include <set>
#include <string>
#include <vector>

namespace idalint {

/**
 * One file, preprocessed for matching: `code` has comments, string
 * and character literals blanked with spaces (line count preserved);
 * `comments` has only the comment text (for suppression parsing).
 */
struct FileView
{
    std::vector<std::string> raw;
    std::vector<std::string> code;
    std::vector<std::string> comments;
};

FileView stripSource(std::istream &in);

/** Convenience for tests: build a FileView from an in-memory string. */
FileView stripSourceText(const std::string &text);

/** Parsed suppressions: per-line (line -> rules) and file-wide. */
struct Suppressions
{
    std::set<std::string> fileWide;
    // Rules allowed on a given 1-based line (the comment's own line
    // and, for a comment-only line, the following line).
    std::vector<std::set<std::string>> perLine;

    bool
    allows(const std::string &rule, std::size_t line1) const
    {
        if (fileWide.count(rule))
            return true;
        return line1 - 1 < perLine.size() &&
               perLine[line1 - 1].count(rule) > 0;
    }
};

Suppressions parseSuppressions(const FileView &v);

/** Function-level annotation kinds (bind to the next definition). */
enum class FnAnnotKind { HotPathRoot, ShardRoot, RngFactory };

struct FnAnnot
{
    FnAnnotKind kind;
    std::size_t line; // 1-based comment line
};

/** A `shared(<kind>)` annotation on a global/static declaration. */
struct SharedAnnot
{
    std::string kind; // "mutex", "atomic", "epoch-barrier", or other
    std::size_t line; // 1-based comment line
};

struct Annotations
{
    std::vector<FnAnnot> fnAnnots;
    std::vector<SharedAnnot> sharedAnnots;

    /**
     * The shared(...) kind covering a declaration on @p line1: an
     * annotation on the same line or the immediately preceding one.
     * Returns nullptr when the declaration carries no annotation.
     */
    const SharedAnnot *sharedAt(std::size_t line1) const;
};

Annotations parseAnnotations(const FileView &v);

} // namespace idalint
