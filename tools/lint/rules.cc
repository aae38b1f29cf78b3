#include "rules.hh"

#include <algorithm>
#include <regex>

namespace idalint {

namespace {

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.rfind(prefix, 0) == 0;
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
    enum class Scope { Library, Everywhere, LibraryNoTime };
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

        return r;
    }();
    return rules;
}

bool
inScope(const LineRule &rule, const std::string &rel)
{
    switch (rule.scope) {
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
    {"IDA009", "no-transcendental-hot-path",
     "per-event transcendental math (std::pow/log/exp) is transitively "
     "reachable from a hot-path root (the finding carries the call "
     "chain); precompute a table at construction instead (see "
     "ecc/rber_model's factored rounds table)"},
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
    case EventKind::Transcendental:
        return "transcendental math";
    case EventKind::RngConstruct:
        return "RNG construction";
    case EventKind::LocalStatic:
        return "mutable local static";
    }
    return "event";
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

    // IDA009 and IDA010: per-event math and allocation, std::function
    // or exception machinery reachable from a hot-path root.
    for (std::size_t i = 0; i < g.size(); ++i) {
        if (!hot.reached(i) || !inSrc(g.node(i)))
            continue;
        const GraphNode &n = g.node(i);
        for (const EventSite &ev : n.fn->events) {
            const char *rule = nullptr;
            if (ev.kind == EventKind::Transcendental)
                rule = "IDA009";
            else if (ev.kind == EventKind::Alloc ||
                     ev.kind == EventKind::StdFunction ||
                     ev.kind == EventKind::Exception)
                rule = "IDA010";
            if (rule == nullptr || n.file->sup.allows(rule, ev.line))
                continue;
            out.push_back({n.file->rel, ev.line, rule,
                           std::string(eventNoun(ev.kind)) +
                               " reachable from hot-path root: " +
                               witnessChain(g, hot, i) + " : " + ev.token,
                           ruleNameFor(rule)});
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

} // namespace idalint
