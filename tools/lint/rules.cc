#include "rules.hh"

#include <algorithm>
#include <cstdio>
#include <istream>
#include <ostream>
#include <regex>

namespace idalint {

namespace {

/**
 * Directories whose dispatch paths must stay allocation-, exception-
 * and std::function-free (the PR 3 kernel contract). Matched against
 * the root-relative path prefix.
 */
const std::vector<std::string> kHotPathDirs = {
    "src/sim/",
    "src/flash/",
    "src/ftl/",
    "src/cache/", // read-cache lookups sit on every host-read dispatch
    "src/fleet/", // staging/merge runs once per host IO per epoch
};

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.rfind(prefix, 0) == 0;
}

bool
isHotPath(const std::string &rel)
{
    return std::any_of(kHotPathDirs.begin(), kHotPathDirs.end(),
                       [&](const auto &d) { return startsWith(rel, d); });
}

bool
isLibrarySource(const std::string &rel)
{
    return startsWith(rel, "src/");
}

bool
isHeader(const std::string &rel)
{
    return rel.size() > 3 && rel.compare(rel.size() - 3, 3, ".hh") == 0;
}

struct LineRule
{
    std::string id;
    std::string name;
    std::string message;
    std::regex pattern;
    enum class Scope { HotPath, Library, Everywhere, LibraryNoTime };
    Scope scope;
};

const std::vector<LineRule> &
lineRules()
{
    static const std::vector<LineRule> rules = [] {
        std::vector<LineRule> r;
        const auto add = [&](const char *id, const char *name,
                             const char *message, const char *pattern,
                             LineRule::Scope scope) {
            r.push_back({id, name, message, std::regex(pattern), scope});
        };

        add("IDA001", "no-std-function-hot-path",
            "std::function (type-erased, may allocate) is banned in "
            "dispatch-path code; use sim::InlineCallback",
            "std::\\s*function\\b|#\\s*include\\s*<functional>",
            LineRule::Scope::HotPath);

        add("IDA002", "no-raw-heap-hot-path",
            "raw heap traffic is banned in dispatch-path code; use the "
            "pooled/slab containers set up at construction",
            // `delete` needs an operand to its right so `= delete;`
            // (deleted special members) stays legal — std::regex has no
            // lookbehind, so match the expression forms instead.
            "\\bnew\\b|\\bdelete\\s*\\[|\\bdelete\\s+[A-Za-z_(*:]|"
            "\\bmalloc\\s*\\(|\\bcalloc\\s*\\(|"
            "\\brealloc\\s*\\(|\\bfree\\s*\\(",
            LineRule::Scope::HotPath);

        add("IDA003", "no-exceptions-hot-path",
            "exceptions are banned in dispatch-path code (the kernel is "
            "built around sim::fatal and status returns)",
            "\\bthrow\\b|\\btry\\b|\\bcatch\\s*\\(",
            LineRule::Scope::HotPath);

        add("IDA004", "no-unseeded-rng",
            "unseeded/wall-clock entropy breaks seeded replay; thread a "
            "sim::Rng (or pass timestamps in) instead",
            "\\brand\\s*\\(|\\bsrand\\s*\\(|\\bdrand48\\s*\\(|"
            "\\brandom\\s*\\(\\s*\\)|random_device|system_clock|"
            "(^|[^:_\\w.])time\\s*\\(|\\bclock\\s*\\(\\s*\\)|"
            "\\bgetpid\\s*\\(",
            LineRule::Scope::Everywhere);

        add("IDA005", "no-raw-time-literal",
            "raw time-unit literal; express durations as multiples of "
            "the sim/time.hh constants (kUsec, kMsec, ...)",
            "\\b1'000\\b|\\b1'000'000\\b|\\b1'000'000'000\\b|"
            "(Time|Tick)\\s*[{(]\\s*[0-9][0-9']{3,}\\s*[})]",
            LineRule::Scope::LibraryNoTime);

        add("IDA006", "include-hygiene",
            "include hygiene: no parent-relative includes, no C compat "
            "headers (<cstdio> over <stdio.h>), headers start with "
            "#pragma once",
            "#\\s*include\\s*\"\\.\\.?/|"
            "#\\s*include\\s*<(assert|ctype|errno|float|limits|locale|"
            "math|setjmp|signal|stdarg|stddef|stdio|stdint|stdlib|string|"
            "time)\\.h>",
            LineRule::Scope::Everywhere);

        add("IDA007", "banned-api",
            "banned unsafe/legacy API; use the std:: replacements "
            "(snprintf, std::string, strtol, ...)",
            "\\bgets\\s*\\(|\\bstrcpy\\s*\\(|\\bstrcat\\s*\\(|"
            "\\bsprintf\\s*\\(|\\bvsprintf\\s*\\(|\\bstrtok\\s*\\(|"
            "\\batoi\\s*\\(|\\batol\\s*\\(|\\bsetjmp\\s*\\(|"
            "\\blongjmp\\s*\\(",
            LineRule::Scope::Everywhere);

        add("IDA008", "no-console-io-in-lib",
            "library code must not write to the console; return "
            "strings, take an ostream, or use sim/log.hh",
            "std::\\s*cout\\b|std::\\s*cerr\\b|\\bprintf\\s*\\(|"
            "\\bfprintf\\s*\\(|\\bputs\\s*\\(",
            LineRule::Scope::Library);

        add("IDA009", "no-transcendental-hot-path",
            "per-event transcendental math (std::pow/log/exp) is banned "
            "on dispatch paths; precompute a table at construction "
            "instead (see ecc/rber_model's factored rounds table)",
            "\\bstd::\\s*(pow|log|log2|log10|log1p|exp|exp2|expm1)"
            "\\s*\\(",
            LineRule::Scope::HotPath);

        return r;
    }();
    return rules;
}

bool
inScope(const LineRule &rule, const std::string &rel)
{
    switch (rule.scope) {
    case LineRule::Scope::HotPath:
        return isHotPath(rel);
    case LineRule::Scope::Library:
        return isLibrarySource(rel);
    case LineRule::Scope::LibraryNoTime:
        return isLibrarySource(rel) && rel != "src/sim/time.hh";
    case LineRule::Scope::Everywhere:
        return true;
    }
    return false;
}

struct GraphRuleMeta
{
    const char *id;
    const char *name;
    const char *message;
};

const GraphRuleMeta kGraphRules[] = {
    {"IDA010", "no-hot-path-reachable-alloc",
     "allocation, std::function, or exception machinery is transitively "
     "reachable from a hot-path root (the finding carries the call "
     "chain); keep dispatch paths on the pooled/slab containers"},
    {"IDA011", "no-unsynchronized-shard-state",
     "mutable static state reachable from shard-worker roots breaks "
     "byte-determinism at any --jobs; annotate deliberate sharing "
     "with // ida-lint: shared(mutex|atomic|epoch-barrier) or move the "
     "state into the shard"},
    {"IDA012", "rng-outside-factory",
     "RNG engines may only be constructed inside tag-seeded factories "
     "(// ida-lint: rng-factory) or src/sim/rng itself, so every stream "
     "stays derived from the run seed"},
};

bool
validSharedKind(const std::string &kind)
{
    return kind == "mutex" || kind == "atomic" || kind == "epoch-barrier";
}

const char *
eventNoun(EventKind k)
{
    switch (k) {
    case EventKind::Alloc:
        return "allocation";
    case EventKind::StdFunction:
        return "std::function";
    case EventKind::Exception:
        return "exception machinery";
    case EventKind::RngConstruct:
        return "RNG construction";
    case EventKind::LocalStatic:
        return "mutable local static";
    }
    return "event";
}

/** The legacy per-line rule an IDA010 event inherits suppressions
 *  from, so existing allow(IDA001..IDA003) comments keep working. */
const char *
legacyRuleFor(EventKind k)
{
    switch (k) {
    case EventKind::Alloc:
        return "IDA002";
    case EventKind::StdFunction:
        return "IDA001";
    case EventKind::Exception:
        return "IDA003";
    default:
        return "";
    }
}

std::string
trimCopy(const std::string &s)
{
    const std::size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    const std::size_t e = s.find_last_not_of(" \t");
    return s.substr(b, e - b + 1);
}

void
jsonEscape(std::ostream &out, const std::string &s)
{
    for (const char c : s) {
        switch (c) {
        case '"':
            out << "\\\"";
            break;
        case '\\':
            out << "\\\\";
            break;
        case '\n':
            out << "\\n";
            break;
        case '\t':
            out << "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out << buf;
            } else {
                out << c;
            }
        }
    }
}

std::string
ruleNameFor(const std::string &id)
{
    for (const LineRule &r : lineRules()) {
        if (r.id == id)
            return r.name;
    }
    for (const GraphRuleMeta &m : kGraphRules) {
        if (id == m.id)
            return m.name;
    }
    return "unknown-rule";
}

} // namespace

std::vector<RuleInfo>
allRules()
{
    std::vector<RuleInfo> out;
    for (const LineRule &r : lineRules())
        out.push_back({r.id, r.name, r.message});
    for (const GraphRuleMeta &m : kGraphRules)
        out.push_back({m.id, m.name, m.message});
    return out;
}

void
runLineRules(const FileIndex &fi, std::vector<Finding> &out)
{
    const FileView &v = fi.view;
    for (const LineRule &rule : lineRules()) {
        if (!inScope(rule, fi.rel))
            continue;
        for (std::size_t i = 0; i < v.code.size(); ++i) {
            if (!std::regex_search(v.code[i], rule.pattern))
                continue;
            if (fi.sup.allows(rule.id, i + 1))
                continue;
            out.push_back(
                {fi.rel, i + 1, rule.id, rule.message, rule.name});
        }
    }

    // IDA006 (part 2): headers must start with #pragma once.
    if (isHeader(fi.rel)) {
        const bool hasPragma = std::any_of(
            v.code.begin(), v.code.end(), [](const std::string &l) {
                return l.find("#pragma once") != std::string::npos;
            });
        if (!hasPragma && !fi.sup.allows("IDA006", 1)) {
            out.push_back({fi.rel, 1, "IDA006",
                           "header is missing #pragma once",
                           "include-hygiene"});
        }
    }
}

void
runGraphRules(const Index &idx, const SymbolGraph &g,
              std::vector<Finding> &out)
{
    std::vector<std::size_t> hotRoots;
    std::vector<std::size_t> shardRoots;
    std::vector<std::size_t> anyRoots;
    for (std::size_t i = 0; i < g.size(); ++i) {
        if (g.node(i).fn->hotRoot)
            hotRoots.push_back(i);
        if (g.node(i).fn->shardRoot)
            shardRoots.push_back(i);
        if (g.node(i).fn->hotRoot || g.node(i).fn->shardRoot)
            anyRoots.push_back(i);
    }
    const Reachability hot = reachableFrom(g, hotRoots);
    const Reachability shard = reachableFrom(g, shardRoots);
    const Reachability any = reachableFrom(g, anyRoots);

    // Event sites in src/ only: tests and benches deliberately
    // allocate, throw, and seed ad-hoc engines — their bodies still
    // provide call edges, but never findings.
    const auto inSrc = [](const GraphNode &n) {
        return startsWith(n.file->rel, "src/");
    };

    // IDA010: no alloc/std::function/exception reachable from a
    // hot-path root. Inherits the matching per-line suppressions so
    // the existing allow(IDA001..IDA003) comments keep their force.
    for (std::size_t i = 0; i < g.size(); ++i) {
        if (!hot.reached(i) || !inSrc(g.node(i)))
            continue;
        const GraphNode &n = g.node(i);
        for (const EventSite &ev : n.fn->events) {
            if (ev.kind != EventKind::Alloc &&
                ev.kind != EventKind::StdFunction &&
                ev.kind != EventKind::Exception)
                continue;
            if (n.file->sup.allows("IDA010", ev.line) ||
                n.file->sup.allows(legacyRuleFor(ev.kind), ev.line))
                continue;
            out.push_back({n.file->rel, ev.line, "IDA010",
                           std::string(eventNoun(ev.kind)) +
                               " reachable from hot-path root: " +
                               witnessChain(g, hot, i) + " : " + ev.token,
                           ruleNameFor("IDA010")});
        }
    }

    // IDA011 (a): mutable function-local statics in shard-reachable
    // code. A shared(<kind>) annotation on the declaration line (or
    // the line above) is the sanctioned escape hatch.
    for (std::size_t i = 0; i < g.size(); ++i) {
        if (!shard.reached(i) || !inSrc(g.node(i)))
            continue;
        const GraphNode &n = g.node(i);
        for (const EventSite &ev : n.fn->events) {
            if (ev.kind != EventKind::LocalStatic)
                continue;
            const SharedAnnot *sh = n.file->annots.sharedAt(ev.line);
            if (sh != nullptr && validSharedKind(sh->kind))
                continue;
            if (n.file->sup.allows("IDA011", ev.line))
                continue;
            std::string msg;
            if (sh != nullptr) {
                msg = "unknown shared(" + sh->kind +
                      ") kind; use shared(mutex|atomic|epoch-barrier)";
            } else {
                msg = "mutable local static '" + ev.name +
                      "' reachable from shard-worker root: " +
                      witnessChain(g, shard, i);
            }
            out.push_back({n.file->rel, ev.line, "IDA011", msg,
                           ruleNameFor("IDA011")});
        }
    }

    // IDA011 (b): namespace-scope mutable state referenced from
    // shard-reachable code.
    for (const FileIndex &fi : idx.files) {
        if (!startsWith(fi.rel, "src/"))
            continue;
        for (const GlobalVar &gv : fi.globals) {
            std::size_t refNode = g.size();
            for (std::size_t i = 0; i < g.size(); ++i) {
                if (shard.reached(i) && inSrc(g.node(i)) &&
                    g.node(i).fn->refs.count(gv.name) > 0) {
                    refNode = i;
                    break;
                }
            }
            if (refNode == g.size())
                continue;
            if (gv.hasShared && validSharedKind(gv.sharedKind))
                continue;
            if (fi.sup.allows("IDA011", gv.line))
                continue;
            std::string msg;
            if (gv.hasShared) {
                msg = "unknown shared(" + gv.sharedKind +
                      ") kind; use shared(mutex|atomic|epoch-barrier)";
            } else {
                msg = "mutable namespace-scope state '" + gv.qualName +
                      "' referenced from shard-worker code: " +
                      witnessChain(g, shard, refNode);
            }
            out.push_back({fi.rel, gv.line, "IDA011", msg,
                           ruleNameFor("IDA011")});
        }
    }

    // IDA012: RNG constructions must live in annotated factories (or
    // in src/sim/rng itself, the engine's home).
    for (std::size_t i = 0; i < g.size(); ++i) {
        const GraphNode &n = g.node(i);
        if (!inSrc(n) || n.fn->rngFactory ||
            startsWith(n.file->rel, "src/sim/rng."))
            continue;
        for (const EventSite &ev : n.fn->events) {
            if (ev.kind != EventKind::RngConstruct)
                continue;
            if (n.file->sup.allows("IDA012", ev.line))
                continue;
            const std::string chain = any.reached(i)
                                          ? witnessChain(g, any, i)
                                          : n.fn->qualName;
            out.push_back({n.file->rel, ev.line, "IDA012",
                           "RNG constructed outside a tag-seeded "
                           "factory: " +
                               chain + " : " + ev.token,
                           ruleNameFor("IDA012")});
        }
    }
}

std::string
baselineKey(const Index &idx, const Finding &f)
{
    std::string context;
    for (const FileIndex &fi : idx.files) {
        if (fi.rel != f.path)
            continue;
        const FunctionInfo *best = nullptr;
        for (const FunctionInfo &fn : fi.functions) {
            if (fn.nameLine <= f.line && f.line <= fn.endLine &&
                (best == nullptr || fn.nameLine > best->nameLine))
                best = &fn;
        }
        if (best != nullptr) {
            context = best->qualName;
        } else {
            for (const GlobalVar &gv : fi.globals) {
                if (gv.line == f.line) {
                    context = "global:" + gv.qualName;
                    break;
                }
            }
        }
        if (context.empty() && f.line >= 1 &&
            f.line <= fi.view.raw.size())
            context = "L:" + trimCopy(fi.view.raw[f.line - 1]);
        break;
    }
    if (context.empty())
        context = "L:?";
    return f.rule + "|" + f.path + "|" + context;
}

std::set<std::string>
loadBaseline(std::istream &in)
{
    std::set<std::string> keys;
    std::string line;
    while (std::getline(in, line)) {
        const std::string t = trimCopy(line);
        if (t.empty() || t[0] == '#')
            continue;
        keys.insert(t);
    }
    return keys;
}

void
writeBaseline(std::ostream &out, const Index &idx,
              const std::vector<Finding> &findings)
{
    out << "# ida-lint baseline: grandfathered findings, one key per "
           "line.\n"
        << "# Key format: <rule>|<path>|<context> (context = containing "
           "function).\n"
        << "# Regenerate with: ida_lint --root . --write-baseline "
           "tools/lint_baseline.txt\n";
    std::set<std::string> keys;
    for (const Finding &f : findings)
        keys.insert(baselineKey(idx, f));
    for (const std::string &k : keys)
        out << k << "\n";
}

void
renderJson(std::ostream &out, const Index &idx,
           const std::vector<Finding> &reported,
           const std::vector<Finding> &baselined)
{
    out << "{\n"
        << "  \"schema\": \"ida-lint-findings-v1\",\n"
        << "  \"counts\": {\"reported\": " << reported.size()
        << ", \"baselined\": " << baselined.size() << "},\n"
        << "  \"findings\": [";
    bool first = true;
    const auto emit = [&](const Finding &f, bool isBaselined) {
        if (!first)
            out << ",";
        first = false;
        out << "\n    {\"rule\": \"";
        jsonEscape(out, f.rule);
        out << "\", \"name\": \"";
        jsonEscape(out, f.ruleName);
        out << "\", \"path\": \"";
        jsonEscape(out, f.path);
        out << "\", \"line\": " << f.line << ", \"baselined\": "
            << (isBaselined ? "true" : "false") << ", \"key\": \"";
        jsonEscape(out, baselineKey(idx, f));
        out << "\", \"message\": \"";
        jsonEscape(out, f.message);
        out << "\"}";
    };
    for (const Finding &f : reported)
        emit(f, false);
    for (const Finding &f : baselined)
        emit(f, true);
    out << "\n  ]\n}\n";
}

} // namespace idalint
