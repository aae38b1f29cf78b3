#include "indexer.hh"

#include <cctype>
#include <unordered_set>

namespace idalint {

namespace {

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool
isWordTok(const Tok &t)
{
    return t.ident && isIdentStart(t.text[0]);
}

const std::unordered_set<std::string> &
callBlocklist()
{
    static const std::unordered_set<std::string> s = {
        "if", "for", "while", "switch", "return", "sizeof", "alignof",
        "alignas", "decltype", "noexcept", "static_cast", "dynamic_cast",
        "reinterpret_cast", "const_cast", "typeid", "new", "delete",
        "throw", "catch", "operator", "co_await", "co_yield", "co_return",
        "static_assert", "defined", "assert", "requires",
    };
    return s;
}

const std::unordered_set<std::string> &
rngTypeNames()
{
    static const std::unordered_set<std::string> s = {
        "Rng", "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
        "default_random_engine", "knuth_b", "ranlux24", "ranlux48",
    };
    return s;
}

const std::unordered_set<std::string> &
transcendentalNames()
{
    static const std::unordered_set<std::string> s = {
        "std::pow", "std::log",  "std::log2", "std::log10",
        "std::log1p", "std::exp", "std::exp2", "std::expm1",
    };
    return s;
}

std::string
lastSegment(const std::string &chain)
{
    const std::size_t p = chain.rfind("::");
    return p == std::string::npos ? chain : chain.substr(p + 2);
}

/** The scope/function state machine over one file's token stream. */
class Parser
{
  public:
    Parser(std::vector<Tok> toks, FileIndex &out)
        : toks_(std::move(toks)), out_(out)
    {
    }

    void
    run()
    {
        while (i_ < toks_.size()) {
            if (curFn_ >= 0)
                bodyToken();
            else
                scopeToken();
        }
        // A truncated file leaves the last function open; close it.
        if (curFn_ >= 0 && !toks_.empty())
            out_.functions[static_cast<std::size_t>(curFn_)].endLine =
                toks_.back().line;
    }

  private:
    struct Scope
    {
        enum K { Ns, Cls, Fn, Blk } k;
        std::string name;
    };

    const Tok &
    tok(std::size_t j) const
    {
        static const Tok kEnd{"", 0, false};
        return j < toks_.size() ? toks_[j] : kEnd;
    }

    std::string
    qualPrefix() const
    {
        std::string q;
        for (const Scope &s : scopes_) {
            if ((s.k == Scope::Ns || s.k == Scope::Cls) && !s.name.empty()) {
                if (!q.empty())
                    q += "::";
                q += s.name;
            }
        }
        return q;
    }

    /** Skip a balanced group starting at @p j (toks_[j] is the opener).
     *  Returns the index just past the closer (or past the end). */
    std::size_t
    skipBalanced(std::size_t j, const char *open, const char *close) const
    {
        int depth = 0;
        for (; j < toks_.size(); ++j) {
            if (toks_[j].text == open)
                ++depth;
            else if (toks_[j].text == close && --depth == 0)
                return j + 1;
        }
        return j;
    }

    /** Try to skip template arguments `<...>` at @p j. Returns the index
     *  past the closing `>` on success, or @p j when this is not a
     *  plausible template argument list (comparison operator etc.). */
    std::size_t
    probeTemplateArgs(std::size_t j) const
    {
        if (tok(j).text != "<")
            return j;
        int depth = 0;
        const std::size_t limit = std::min(toks_.size(), j + 64);
        for (std::size_t k = j; k < limit; ++k) {
            const std::string &w = toks_[k].text;
            if (w == "<")
                ++depth;
            else if (w == ">" && --depth == 0)
                return k + 1;
            else if (w == ";" || w == "{" || w == "}")
                return j;
        }
        return j;
    }

    /** Read an `ident(::ident)*` chain starting at @p j (which must be a
     *  word token). Returns (chain text, index past the chain). */
    std::pair<std::string, std::size_t>
    readChain(std::size_t j) const
    {
        std::string chain = toks_[j].text;
        std::size_t k = j + 1;
        while (tok(k).text == "::" && isWordTok(tok(k + 1))) {
            chain += "::" + tok(k + 1).text;
            k += 2;
        }
        return {chain, k};
    }

    // ---- inside a function body ------------------------------------

    void
    bodyToken()
    {
        const Tok &t = toks_[i_];
        if (t.text == "{") {
            scopes_.push_back({Scope::Blk, ""});
            ++i_;
            return;
        }
        if (t.text == "}") {
            if (!scopes_.empty()) {
                const Scope s = scopes_.back();
                scopes_.pop_back();
                if (s.k == Scope::Fn) {
                    out_.functions[static_cast<std::size_t>(curFn_)]
                        .endLine = t.line;
                    curFn_ = -1;
                }
            }
            ++i_;
            return;
        }
        i_ = scanOne(out_.functions[static_cast<std::size_t>(curFn_)], i_);
    }

    /** Scan one token (or chain) of a function body starting at @p j;
     *  records refs, calls, and event sites. Returns the next index. */
    std::size_t
    scanOne(FunctionInfo &fn, std::size_t j)
    {
        const Tok &t = toks_[j];
        if (!isWordTok(t))
            return j + 1;
        const std::string &w = t.text;
        fn.refs.insert(w);

        if (w == "new" || w == "delete") {
            fn.events.push_back({EventKind::Alloc, w, t.line, ""});
            return j + 1;
        }
        if (w == "throw" || w == "try" || w == "catch") {
            fn.events.push_back({EventKind::Exception, w, t.line, ""});
            return j + 1;
        }
        if (w == "static")
            return scanLocalStatic(fn, j);
        if (w == "std" && tok(j + 1).text == "::" &&
            tok(j + 2).text == "function") {
            fn.events.push_back(
                {EventKind::StdFunction, "std::function", t.line, ""});
            fn.refs.insert("function");
            return j + 3;
        }

        auto [chain, end] = readChain(j);
        for (std::size_t k = j + 2; k < end; k += 2)
            fn.refs.insert(toks_[k].text);
        const std::string last = lastSegment(chain);

        if (last == "malloc" || last == "calloc" || last == "realloc" ||
            last == "free") {
            if (tok(end).text == "(")
                fn.events.push_back(
                    {EventKind::Alloc, chain, t.line, ""});
        } else if (last == "make_unique" || last == "make_shared") {
            if (tok(end).text == "(" || tok(end).text == "<")
                fn.events.push_back(
                    {EventKind::Alloc, chain, t.line, ""});
        } else if (transcendentalNames().count(chain) > 0) {
            if (tok(end).text == "(")
                fn.events.push_back(
                    {EventKind::Transcendental, chain, t.line, ""});
        } else if (rngTypeNames().count(last) > 0) {
            bool ctor = tok(end).text == "(" || tok(end).text == "{";
            if (!ctor && isWordTok(tok(end)) &&
                (tok(end + 1).text == "(" || tok(end + 1).text == "{"))
                ctor = true; // `sim::Rng rng(seed)` declaration form
            if (ctor)
                fn.events.push_back(
                    {EventKind::RngConstruct, chain, t.line, ""});
        }

        // Call site: `chain(` or `chain<...>(`; member calls arrive here
        // as their bare last segment (the `.`/`->` is a separate token).
        if (callBlocklist().count(chain) == 0) {
            if (tok(end).text == "(") {
                fn.calls.push_back({chain, t.line});
            } else if (tok(end).text == "<") {
                const std::size_t past = probeTemplateArgs(end);
                if (past != end && tok(past).text == "(")
                    fn.calls.push_back({chain, t.line});
            }
        }
        return end;
    }

    /** Handle a `static` token inside a body: record a LocalStatic event
     *  unless the declaration is const/constexpr. Scanning resumes right
     *  after the keyword so the initializer is still seen normally. */
    std::size_t
    scanLocalStatic(FunctionInfo &fn, std::size_t j)
    {
        bool isConst = false;
        std::string name;
        int paren = 0;
        const std::size_t limit = std::min(toks_.size(), j + 80);
        for (std::size_t k = j + 1; k < limit; ++k) {
            const std::string &w = toks_[k].text;
            if (w == "(") {
                ++paren;
                continue;
            }
            if (w == ")") {
                --paren;
                continue;
            }
            if (paren == 0 && (w == ";" || w == "=" || w == "{"))
                break;
            if (w == "const" || w == "constexpr" || w == "constinit")
                isConst = true;
            if (isWordTok(toks_[k]))
                name = w;
        }
        if (!isConst && !name.empty())
            fn.events.push_back(
                {EventKind::LocalStatic, "static", toks_[j].line, name});
        return j + 1;
    }

    // ---- at namespace/class scope ----------------------------------

    void
    scopeToken()
    {
        const Tok &t = toks_[i_];
        const std::string &w = t.text;
        if (w == "{") {
            // Stray brace at scope (e.g. a brace-initialized global the
            // variable heuristic does not model): stay balanced.
            scopes_.push_back({Scope::Blk, ""});
            stmt_.clear();
            ++i_;
            return;
        }
        if (w == "}") {
            if (!scopes_.empty())
                scopes_.pop_back();
            stmt_.clear();
            ++i_;
            return;
        }
        if (w == ";") {
            flushStmt();
            ++i_;
            return;
        }
        if (w == "namespace") {
            parseNamespace();
            return;
        }
        if (w == "template") {
            const std::size_t past = probeTemplateArgs(i_ + 1);
            i_ = past != i_ + 1 ? past : i_ + 1;
            return;
        }
        if (w == "enum") {
            parseEnum();
            return;
        }
        if (w == "class" || w == "struct" || w == "union") {
            parseClassHead();
            return;
        }
        if (w == "(") {
            tryFunctionDef();
            return;
        }
        stmt_.push_back(t);
        ++i_;
    }

    void
    parseNamespace()
    {
        std::size_t j = i_ + 1;
        std::string name;
        while (isWordTok(tok(j))) {
            if (!name.empty())
                name += "::";
            name += tok(j).text;
            if (tok(j + 1).text == "::")
                j += 2;
            else {
                ++j;
                break;
            }
        }
        if (tok(j).text == "{") {
            scopes_.push_back({Scope::Ns, name});
            stmt_.clear();
            i_ = j + 1;
            return;
        }
        // Namespace alias or using-directive fragment: skip to `;`.
        while (j < toks_.size() && toks_[j].text != ";")
            ++j;
        stmt_.clear();
        i_ = j + 1;
    }

    void
    parseEnum()
    {
        std::size_t j = i_ + 1;
        while (j < toks_.size() && toks_[j].text != "{" &&
               toks_[j].text != ";")
            ++j;
        if (tok(j).text == "{")
            j = skipBalanced(j, "{", "}");
        else
            ++j; // past the `;` of an opaque declaration
        stmt_.clear();
        i_ = j;
    }

    void
    parseClassHead()
    {
        std::size_t j = i_ + 1;
        std::string name;
        while (j < toks_.size()) {
            const std::string &w = toks_[j].text;
            if (w == "{" || w == ";" || w == "=" || w == "(")
                break;
            if (isWordTok(toks_[j]) && w != "final" && w != "alignas" &&
                name.empty())
                name = w;
            if (w == ":")
                break; // base-class list: the name is fixed now
            ++j;
        }
        while (j < toks_.size() && toks_[j].text != "{" &&
               toks_[j].text != ";" && toks_[j].text != "=")
            ++j;
        if (tok(j).text == "{") {
            scopes_.push_back({Scope::Cls, name});
            stmt_.clear();
            i_ = j + 1;
            return;
        }
        // Forward declaration / alias: consume through the terminator.
        stmt_.clear();
        i_ = j + 1;
    }

    /** Walk stmt_ backwards to recover the function name chain ending
     *  just before the `(` at i_. Empty result = not a plausible name. */
    std::pair<std::string, std::size_t>
    pendingName() const
    {
        if (stmt_.empty())
            return {"", 0};
        // operator overloads: name = "operator" + trailing symbols.
        for (std::size_t k = stmt_.size(); k-- > 0;) {
            if (stmt_[k].text == "operator") {
                std::string name = "operator";
                for (std::size_t m = k + 1; m < stmt_.size(); ++m)
                    name += stmt_[m].text;
                return {name, stmt_[k].line};
            }
            if (stmt_.size() - k > 3)
                break;
        }
        std::size_t k = stmt_.size() - 1;
        if (!isWordTok(stmt_[k]))
            return {"", 0};
        std::string chain = stmt_[k].text;
        const std::size_t nameLine = stmt_[k].line;
        while (k >= 2 && stmt_[k - 1].text == "::" &&
               isWordTok(stmt_[k - 2])) {
            chain = stmt_[k - 2].text + "::" + chain;
            k -= 2;
        }
        if (k >= 1 && stmt_[k - 1].text == "~")
            chain = "~" + chain;
        return {chain, nameLine};
    }

    /** i_ is at a `(` following a potential function name at namespace
     *  or class scope: decide declaration vs definition, and enter the
     *  body when it is a definition. */
    void
    tryFunctionDef()
    {
        auto [chain, nameLine] = pendingName();
        const std::string last = lastSegment(chain);
        const bool plausible =
            !chain.empty() && callBlocklist().count(last) == 0 &&
            last != "int" && last != "auto" && last != "void" &&
            last != "bool" && last != "char" && last != "double" &&
            last != "float" && last != "long" && last != "unsigned";
        const std::size_t afterParams = skipBalanced(i_, "(", ")");
        if (!plausible) {
            // Not a name: `decltype(...)`, attributes, macro args, ...
            // Skip the group and keep accumulating the statement.
            i_ = afterParams;
            return;
        }

        std::size_t j = afterParams;
        std::vector<std::pair<std::size_t, std::size_t>> initRanges;
        bool isDef = false;
        for (std::size_t guard = 0; guard < 160 && j < toks_.size();
             ++guard) {
            const std::string &w = toks_[j].text;
            if (w == "{") {
                isDef = true;
                break;
            }
            if (w == ";") {
                stmt_.clear();
                i_ = j + 1;
                return;
            }
            if (w == "=" || w == ",") {
                // `= default/delete/0`, or a declarator list: this is
                // not a definition; consume through the statement.
                while (j < toks_.size() && toks_[j].text != ";")
                    ++j;
                stmt_.clear();
                i_ = j + 1;
                return;
            }
            if (w == ":") {
                if (!parseCtorInit(j + 1, j, initRanges)) {
                    while (j < toks_.size() && toks_[j].text != ";" &&
                           toks_[j].text != "{")
                        ++j;
                }
                continue;
            }
            if (w == "(") {
                j = skipBalanced(j, "(", ")");
                continue;
            }
            if (w == "<") {
                const std::size_t past = probeTemplateArgs(j);
                j = past != j ? past : j + 1;
                continue;
            }
            ++j; // const, noexcept, override, ->, type tokens, ...
        }
        if (!isDef) {
            stmt_.clear();
            i_ = j < toks_.size() ? j + 1 : j;
            return;
        }

        FunctionInfo fn;
        const std::string prefix = qualPrefix();
        fn.qualName = prefix.empty() ? chain : prefix + "::" + chain;
        fn.lastName = last;
        fn.file = out_.rel;
        fn.nameLine = nameLine;
        bindFnAnnotations(fn);
        out_.functions.push_back(std::move(fn));
        curFn_ = static_cast<int>(out_.functions.size() - 1);
        scopes_.push_back({Scope::Fn, ""});
        stmt_.clear();

        // Scan ctor initializer expressions as body code: member inits
        // run at construction and can call/allocate like any statement.
        FunctionInfo &ref = out_.functions[static_cast<std::size_t>(curFn_)];
        for (const auto &[b, e] : initRanges) {
            for (std::size_t k = b; k < e;)
                k = scanOne(ref, k);
        }
        i_ = j + 1; // past the body `{`
    }

    /**
     * Parse a ctor initializer list starting at @p j (just past `:`).
     * On success @p bodyBrace is the index of the body `{` and the
     * token ranges of each initializer expression are appended to
     * @p ranges. Returns false when the shape does not match.
     */
    bool
    parseCtorInit(std::size_t j, std::size_t &bodyBrace,
                  std::vector<std::pair<std::size_t, std::size_t>> &ranges)
    {
        for (;;) {
            if (!isWordTok(tok(j)))
                return false;
            auto [ignored, past] = readChain(j);
            (void)ignored;
            j = probeTemplateArgs(past) != past ? probeTemplateArgs(past)
                                                : past;
            const std::string &open = tok(j).text;
            if (open != "(" && open != "{")
                return false;
            const std::size_t close =
                open == "(" ? skipBalanced(j, "(", ")")
                            : skipBalanced(j, "{", "}");
            ranges.emplace_back(j + 1, close > 0 ? close - 1 : j + 1);
            j = close;
            if (tok(j).text == ",") {
                ++j;
                continue;
            }
            break;
        }
        if (tok(j).text != "{")
            return false;
        bodyBrace = j;
        return true;
    }

    void
    bindFnAnnotations(FunctionInfo &fn)
    {
        for (std::size_t a = 0; a < out_.annots.fnAnnots.size(); ++a) {
            if (fnAnnotUsed_.count(a) > 0)
                continue;
            const FnAnnot &an = out_.annots.fnAnnots[a];
            if (an.line <= fn.nameLine && fn.nameLine - an.line <= 8) {
                fnAnnotUsed_.insert(a);
                switch (an.kind) {
                case FnAnnotKind::HotPathRoot:
                    fn.hotRoot = true;
                    break;
                case FnAnnotKind::ShardRoot:
                    fn.shardRoot = true;
                    break;
                case FnAnnotKind::RngFactory:
                    fn.rngFactory = true;
                    break;
                }
            }
        }
    }

    void
    flushStmt()
    {
        if (stmt_.empty())
            return;
        const bool atNs =
            scopes_.empty() || scopes_.back().k == Scope::Ns;
        if (!atNs) {
            stmt_.clear();
            return;
        }
        tryGlobalVar();
        stmt_.clear();
    }

    /** Namespace-scope mutable variable heuristic (see indexer.hh). */
    void
    tryGlobalVar()
    {
        static const std::unordered_set<std::string> kSkipFirst = {
            "using", "typedef", "friend", "extern", "template",
            "static_assert", "namespace", "goto", "public", "private",
            "protected", "return", "operator",
        };
        if (kSkipFirst.count(stmt_.front().text) > 0)
            return;
        std::size_t eq = stmt_.size();
        std::size_t idents = 0;
        for (std::size_t k = 0; k < stmt_.size(); ++k) {
            const std::string &w = stmt_[k].text;
            if (w == "const" || w == "constexpr" || w == "constinit" ||
                w == "consteval" || w == "operator")
                return;
            if (w == "(" && eq == stmt_.size())
                return; // function declaration / constructor-style init
            if (w == "=" && eq == stmt_.size())
                eq = k;
            if (isWordTok(stmt_[k]))
                ++idents;
        }
        std::size_t nameIdx = stmt_.size();
        const std::size_t stop = eq < stmt_.size() ? eq : stmt_.size();
        for (std::size_t k = stop; k-- > 0;) {
            if (stmt_[k].text == "]") {
                while (k > 0 && stmt_[k].text != "[")
                    --k;
                continue;
            }
            if (isWordTok(stmt_[k])) {
                nameIdx = k;
                break;
            }
        }
        if (nameIdx >= stmt_.size() || idents < 2)
            return;
        GlobalVar g;
        g.name = stmt_[nameIdx].text;
        const std::string prefix = qualPrefix();
        g.qualName = prefix.empty() ? g.name : prefix + "::" + g.name;
        g.file = out_.rel;
        g.line = stmt_[nameIdx].line;
        const SharedAnnot *sh = out_.annots.sharedAt(stmt_.front().line);
        if (sh == nullptr)
            sh = out_.annots.sharedAt(g.line);
        if (sh != nullptr) {
            g.hasShared = true;
            g.sharedKind = sh->kind;
        }
        out_.globals.push_back(std::move(g));
    }

    std::vector<Tok> toks_;
    FileIndex &out_;
    std::size_t i_ = 0;
    std::vector<Scope> scopes_;
    int curFn_ = -1;
    std::vector<Tok> stmt_;
    std::set<std::size_t> fnAnnotUsed_;
};

} // namespace

std::vector<Tok>
tokenize(const FileView &v)
{
    std::vector<Tok> toks;
    for (std::size_t li = 0; li < v.code.size(); ++li) {
        const std::string &line = v.code[li];
        const std::size_t first = line.find_first_not_of(" \t");
        if (first != std::string::npos && line[first] == '#')
            continue; // preprocessor lines never open scopes or bodies
        for (std::size_t c = 0; c < line.size();) {
            const char ch = line[c];
            if (std::isspace(static_cast<unsigned char>(ch))) {
                ++c;
                continue;
            }
            if (isIdentStart(ch)) {
                std::size_t e = c + 1;
                while (e < line.size() && isIdentChar(line[e]))
                    ++e;
                toks.push_back({line.substr(c, e - c), li + 1, true});
                c = e;
                continue;
            }
            if (std::isdigit(static_cast<unsigned char>(ch))) {
                std::size_t e = c + 1;
                while (e < line.size() &&
                       (isIdentChar(line[e]) || line[e] == '\'' ||
                        line[e] == '.'))
                    ++e;
                toks.push_back({line.substr(c, e - c), li + 1, true});
                c = e;
                continue;
            }
            if (ch == ':' && c + 1 < line.size() && line[c + 1] == ':') {
                toks.push_back({"::", li + 1, false});
                c += 2;
                continue;
            }
            if (ch == '-' && c + 1 < line.size() && line[c + 1] == '>') {
                toks.push_back({"->", li + 1, false});
                c += 2;
                continue;
            }
            toks.push_back({std::string(1, ch), li + 1, false});
            ++c;
        }
    }
    return toks;
}

FileIndex
indexFile(FileView view, const std::string &rel)
{
    FileIndex fi;
    fi.rel = rel;
    fi.sup = parseSuppressions(view);
    fi.annots = parseAnnotations(view);
    fi.view = std::move(view);
    Parser p(tokenize(fi.view), fi);
    p.run();
    return fi;
}

} // namespace idalint
