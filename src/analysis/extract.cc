#include "analysis/extract.hh"

#include <algorithm>
#include <set>

namespace genesys::analysis
{

namespace
{

const std::set<std::string> &
keywords()
{
    static const std::set<std::string> kw = {
        "alignas",     "alignof",  "assert",     "auto",
        "bool",        "break",    "case",       "catch",
        "char",        "class",    "co_await",   "co_return",
        "co_yield",    "const",    "const_cast", "constexpr",
        "continue",    "decltype", "default",    "delete",
        "do",          "double",   "dynamic_cast", "else",
        "enum",        "explicit", "float",      "for",
        "goto",        "if",       "inline",     "int",
        "long",        "namespace", "new",       "noexcept",
        "operator",    "private",  "protected",  "public",
        "reinterpret_cast", "requires", "return", "short",
        "signed",      "sizeof",   "static",     "static_assert",
        "static_cast", "struct",   "switch",     "template",
        "throw",       "typedef",  "typename",   "union",
        "unsigned",    "using",    "virtual",    "void",
        "while",
    };
    return kw;
}

/// Calls whose arguments (and lambdas) execute later, on another
/// logical thread: workqueue dispatch, event scheduling, task spawn.
const std::set<std::string> &
deferralSinks()
{
    static const std::set<std::string> sinks = {
        "enqueue", "enqueueOn", "scheduleIn", "schedule", "spawn",
        "post",    "defer",
    };
    return sinks;
}

bool
isIdent(const Token &t)
{
    return t.kind == TokKind::Ident;
}

bool
isPunct(const Token &t, const char *text)
{
    return t.kind == TokKind::Punct && t.text == text;
}

struct OpenParen
{
    std::string callee; ///< empty for grouping parens
    bool deferral = false;
};

struct Guard
{
    std::string lockId;
    int depth = 0; ///< brace depth the guard dies at; 0 = manual
};

class FileExtractor
{
  public:
    FileExtractor(Program &prog, int fileIndex)
        : prog_(prog), file_(prog.files[static_cast<std::size_t>(
                           fileIndex)]),
          toks_(file_.tokens), fileIndex_(fileIndex)
    {}

    void
    run()
    {
        std::size_t i = 0;
        parseDeclScope(i, toks_.size(), {});
        markGuardFacts();
    }

  private:
    // ---- small helpers --------------------------------------------
    std::size_t
    matchForward(std::size_t i, const char *open, const char *close,
                 std::size_t limit) const
    {
        // i points at `open`; returns index of the matching `close`
        // (or limit when unbalanced).
        int depth = 0;
        for (std::size_t j = i; j < limit; ++j) {
            if (isPunct(toks_[j], open))
                ++depth;
            else if (isPunct(toks_[j], close) && --depth == 0)
                return j;
        }
        return limit;
    }

    /// Skip a template argument / angle-bracket section starting at
    /// `<`. Returns the index after the matching `>`.
    std::size_t
    skipAngles(std::size_t i, std::size_t limit) const
    {
        int depth = 0;
        std::size_t j = i;
        for (; j < limit; ++j) {
            if (isPunct(toks_[j], "<"))
                ++depth;
            else if (isPunct(toks_[j], ">") && --depth == 0)
                return j + 1;
            else if (isPunct(toks_[j], ";") || isPunct(toks_[j], "{"))
                break; // malformed / not really a template section
        }
        return j;
    }

    std::string
    classQualOf(const std::vector<std::string> &classes) const
    {
        std::string q;
        for (const auto &c : classes) {
            if (!q.empty())
                q += "::";
            q += c;
        }
        return q;
    }

    // ---- namespace / class level ----------------------------------
    /**
     * Parse tokens [i, limit) at declaration scope. @p classes holds
     * the enclosing class names (namespaces are not recorded: park
     * seeds and qual names stay namespace-free). Advances @p i.
     */
    void
    parseDeclScope(std::size_t &i, std::size_t limit,
                   std::vector<std::string> classes)
    {
        while (i < limit) {
            const Token &t = toks_[i];
            if (isPunct(t, "}")) {
                ++i;
                return;
            }
            if (isIdent(t) && t.text == "namespace") {
                std::size_t j = i + 1;
                while (j < limit && (isIdent(toks_[j]) ||
                                     isPunct(toks_[j], "::")))
                    ++j;
                if (j < limit && isPunct(toks_[j], "{")) {
                    i = j + 1;
                    parseDeclScope(i, limit, classes);
                    continue;
                }
                // alias or malformed: skip the statement
                while (j < limit && !isPunct(toks_[j], ";"))
                    ++j;
                i = j + 1;
                continue;
            }
            if (isIdent(t) &&
                (t.text == "class" || t.text == "struct" ||
                 t.text == "union")) {
                // Find the tag name: last ident before ':'/'{'/';'.
                std::string name;
                std::size_t j = i + 1;
                for (; j < limit; ++j) {
                    if (isPunct(toks_[j], "{") ||
                        isPunct(toks_[j], ";") ||
                        isPunct(toks_[j], ":"))
                        break;
                    if (isPunct(toks_[j], "<")) {
                        j = skipAngles(j, limit) - 1;
                        continue;
                    }
                    if (isIdent(toks_[j]) && toks_[j].text != "final" &&
                        toks_[j].text != "alignas")
                        name = toks_[j].text;
                }
                // Skip a base-clause to the opening brace.
                while (j < limit && !isPunct(toks_[j], "{") &&
                       !isPunct(toks_[j], ";"))
                    ++j;
                if (j < limit && isPunct(toks_[j], "{")) {
                    i = j + 1;
                    std::vector<std::string> inner = classes;
                    if (!name.empty())
                        inner.push_back(name);
                    parseDeclScope(i, limit, inner);
                    // Skip trailing declarator list up to ';'.
                    while (i < limit && !isPunct(toks_[i], ";") &&
                           !isPunct(toks_[i], "}") &&
                           !isIdent(toks_[i]))
                        ++i;
                    continue;
                }
                i = j + 1;
                continue;
            }
            if (isIdent(t) && t.text == "enum") {
                std::size_t j = i;
                while (j < limit && !isPunct(toks_[j], "{") &&
                       !isPunct(toks_[j], ";"))
                    ++j;
                if (j < limit && isPunct(toks_[j], "{"))
                    j = matchForward(j, "{", "}", limit);
                i = j + 1;
                continue;
            }
            if (isIdent(t) && t.text == "template") {
                std::size_t j = i + 1;
                if (j < limit && isPunct(toks_[j], "<"))
                    j = skipAngles(j, limit);
                i = j;
                continue;
            }
            // Candidate function: ident followed by '('.
            if (isIdent(t) && keywords().count(t.text) == 0 &&
                i + 1 < limit && isPunct(toks_[i + 1], "(")) {
                if (tryFunction(i, limit, classes))
                    continue;
            }
            // Stray open brace (array initializer, extern "C", ...).
            if (isPunct(t, "{")) {
                i = matchForward(i, "{", "}", limit) + 1;
                continue;
            }
            ++i;
        }
    }

    /**
     * Try to parse a function definition whose name token is at @p i
     * (with `(` at i+1). On success extracts the body, advances @p i
     * past it, and returns true. On a plain declaration or a
     * variable-with-initializer, advances past the ';' and returns
     * true as well (the construct is consumed either way). Returns
     * false only when this is not a parseable candidate.
     */
    bool
    tryFunction(std::size_t &i, std::size_t limit,
                const std::vector<std::string> &classes)
    {
        // Qualified-name walk-back: A::B::name.
        std::string prefix;
        {
            std::size_t k = i;
            while (k >= 2 && isPunct(toks_[k - 1], "::") &&
                   isIdent(toks_[k - 2])) {
                prefix = toks_[k - 2].text +
                         (prefix.empty() ? "" : "::") + prefix;
                k -= 2;
            }
        }
        const std::string shortName = toks_[i].text;
        const int defLine = toks_[i].line;
        std::size_t close = matchForward(i + 1, "(", ")", limit);
        if (close >= limit)
            return false;
        std::size_t j = close + 1;
        // Trailing qualifiers.
        while (j < limit) {
            const Token &q = toks_[j];
            if (isIdent(q) &&
                (q.text == "const" || q.text == "override" ||
                 q.text == "final" || q.text == "mutable" ||
                 q.text == "constexpr")) {
                ++j;
                continue;
            }
            if (isIdent(q) && q.text == "noexcept") {
                ++j;
                if (j < limit && isPunct(toks_[j], "("))
                    j = matchForward(j, "(", ")", limit) + 1;
                continue;
            }
            if (isPunct(q, "->")) { // trailing return type
                ++j;
                while (j < limit && !isPunct(toks_[j], "{") &&
                       !isPunct(toks_[j], ";")) {
                    if (isPunct(toks_[j], "<")) {
                        j = skipAngles(j, limit);
                        continue;
                    }
                    ++j;
                }
                continue;
            }
            break;
        }
        if (j >= limit)
            return false;
        if (isPunct(toks_[j], ";")) {
            i = j + 1; // declaration only
            return true;
        }
        if (isPunct(toks_[j], "=")) {
            // `= default` / `= delete` / variable initializer.
            while (j < limit && !isPunct(toks_[j], ";"))
                ++j;
            i = j + 1;
            return true;
        }
        if (isPunct(toks_[j], ":")) {
            // Constructor-initializer list: member(init) or
            // member{init} groups separated by commas, then the body.
            ++j;
            while (j < limit && !isPunct(toks_[j], "{")) {
                if (isPunct(toks_[j], "(")) {
                    j = matchForward(j, "(", ")", limit) + 1;
                    if (j < limit && isPunct(toks_[j], "{") &&
                        !nextIsComma(j, limit))
                        break; // this '{' is the body
                    continue;
                }
                if (isPunct(toks_[j], "<")) {
                    j = skipAngles(j, limit);
                    continue;
                }
                if (isPunct(toks_[j], "{")) {
                    // Brace-init of a member, only when followed by
                    // ',' or another init; otherwise it is the body.
                    std::size_t end =
                        matchForward(j, "{", "}", limit);
                    if (end + 1 < limit &&
                        (isPunct(toks_[end + 1], ",") ||
                         isPunct(toks_[end + 1], "{"))) {
                        j = end + 1;
                        continue;
                    }
                    // Could still be the body if what precedes was a
                    // complete init; treat as body.
                    break;
                }
                ++j;
            }
        }
        if (j >= limit || !isPunct(toks_[j], "{"))
            return false;

        std::string qual;
        if (!prefix.empty())
            qual = prefix + "::" + shortName;
        else if (!classes.empty())
            qual = classQualOf(classes) + "::" + shortName;
        else
            qual = shortName;

        const int funcIdx = static_cast<int>(prog_.functions.size());
        Function fn;
        fn.qualName = qual;
        fn.shortName = shortName;
        fn.fileIndex = fileIndex_;
        fn.line = defLine;
        fn.bodyBegin = j;
        parseParams(i + 1, close, fn);
        prog_.functions.push_back(std::move(fn));
        std::size_t end = scanBody(j, limit, funcIdx, qual);
        prog_.functions[static_cast<std::size_t>(funcIdx)].bodyEnd =
            end;
        i = end + 1;
        return true;
    }

    bool
    nextIsComma(std::size_t braceIdx, std::size_t limit) const
    {
        std::size_t end = matchForward(braceIdx, "{", "}", limit);
        return end + 1 < limit && isPunct(toks_[end + 1], ",");
    }

    /**
     * Recover parameter names and arity bounds from the signature
     * parens [@p lparen, @p rparen]. A parameter's name is the last
     * top-level identifier of its comma segment that is neither a
     * keyword nor part of a qualified type (adjacent to `::`),
     * stopping at a default-value `=`. Defaulted parameters lower the
     * required arity; a pack/ellipsis makes the maximum unbounded.
     */
    void
    parseParams(std::size_t lparen, std::size_t rparen,
                Function &fn) const
    {
        fn.minArgs = 0;
        fn.maxArgs = 0;
        if (rparen <= lparen + 1)
            return; // ()
        auto flush = [&](std::size_t b, std::size_t e) {
            if (fn.maxArgs < 0)
                return; // already unbounded past a pack
            std::string name;
            bool defaulted = false;
            int depth = 0;
            for (std::size_t k = b; k < e; ++k) {
                const Token &t = toks_[k];
                if (isPunct(t, "(") || isPunct(t, "[") ||
                    isPunct(t, "{")) {
                    ++depth;
                    continue;
                }
                if (isPunct(t, ")") || isPunct(t, "]") ||
                    isPunct(t, "}")) {
                    --depth;
                    continue;
                }
                if (depth > 0)
                    continue;
                if (isPunct(t, "<")) {
                    k = skipAngles(k, e) - 1;
                    continue;
                }
                if (isPunct(t, "=")) {
                    defaulted = true;
                    break;
                }
                if (isPunct(t, ".")) { // ellipsis / parameter pack
                    fn.maxArgs = -1;
                    return;
                }
                if (isIdent(t) && keywords().count(t.text) == 0) {
                    const bool qualified =
                        (k > b && isPunct(toks_[k - 1], "::")) ||
                        (k + 1 < e && isPunct(toks_[k + 1], "::"));
                    if (!qualified)
                        name = t.text;
                }
            }
            if (e == b + 1 && isIdent(toks_[b]) &&
                toks_[b].text == "void")
                return; // (void): no parameters
            fn.params.push_back(name);
            ++fn.maxArgs;
            if (!defaulted)
                ++fn.minArgs;
        };
        int depth = 0;
        std::size_t b = lparen + 1;
        for (std::size_t k = lparen + 1; k < rparen; ++k) {
            const Token &t = toks_[k];
            if (isPunct(t, "(") || isPunct(t, "[") ||
                isPunct(t, "{")) {
                ++depth;
                continue;
            }
            if (isPunct(t, ")") || isPunct(t, "]") ||
                isPunct(t, "}")) {
                --depth;
                continue;
            }
            if (depth != 0)
                continue;
            if (isPunct(t, "<")) {
                k = skipAngles(k, rparen) - 1;
                continue;
            }
            if (isPunct(t, ",")) {
                flush(b, k);
                b = k + 1;
            }
        }
        flush(b, rparen);
    }

    /**
     * Split a call's argument list [@p lparen, @p rparen] on
     * top-level commas into @p cs: the arity plus, per position, the
     * spelled name when the argument is a single identifier or number
     * token. Template argument sections after an identifier
     * (`as<int>(0)`) are skipped; a lone `<` with no matching `>`
     * stays an ordinary comparison.
     */
    void
    captureArgs(std::size_t lparen, std::size_t rparen, CallSite &cs)
        const
    {
        if (rparen <= lparen)
            return; // unbalanced: leave argCount unknown
        if (rparen == lparen + 1) {
            cs.argCount = 0;
            return;
        }
        auto flush = [&](std::size_t b, std::size_t e) {
            if (e == b + 1 && (isIdent(toks_[b]) ||
                               toks_[b].kind == TokKind::Number))
                cs.args.push_back(toks_[b].text);
            else
                cs.args.push_back("");
            cs.argRoots.push_back(argRoot(b, e));
        };
        int depth = 0;
        std::size_t b = lparen + 1;
        for (std::size_t k = lparen + 1; k < rparen; ++k) {
            const Token &t = toks_[k];
            if (isPunct(t, "(") || isPunct(t, "[") ||
                isPunct(t, "{")) {
                ++depth;
                continue;
            }
            if (isPunct(t, ")") || isPunct(t, "]") ||
                isPunct(t, "}")) {
                --depth;
                continue;
            }
            if (depth != 0)
                continue;
            if (isPunct(t, "<") && isIdent(toks_[k - 1])) {
                const std::size_t after = skipAngles(k, rparen);
                if (after > k + 1 && after <= rparen &&
                    isPunct(toks_[after - 1], ">")) {
                    k = after - 1;
                    continue;
                }
            }
            if (isPunct(t, ",")) {
                flush(b, k);
                b = k + 1;
            }
        }
        flush(b, rparen);
        cs.argCount = static_cast<int>(cs.args.size());
    }

    /**
     * The identifier an argument expression [@p b, @p e) is "about":
     * the first identifier that is not a qualifier (`std::`), not a
     * template/cast head (`min<`), not a function name (`move(`) and
     * not itself qualified (`::ptrdiff_t`). `*base` roots at "base",
     * `std::move(seg.data)` at "seg", `segs.data()` at "segs".
     */
    std::string
    argRoot(std::size_t b, std::size_t e) const
    {
        for (std::size_t k = b; k < e; ++k) {
            const Token &t = toks_[k];
            if (!isIdent(t) || keywords().count(t.text) != 0)
                continue;
            if (k + 1 < e && (isPunct(toks_[k + 1], "::") ||
                              isPunct(toks_[k + 1], "<") ||
                              isPunct(toks_[k + 1], "(")))
                continue;
            if (k > b && isPunct(toks_[k - 1], "::"))
                continue;
            return t.text;
        }
        return "";
    }

    // ---- body scanning --------------------------------------------
    std::string
    qualifyLock(const std::string &expr,
                const std::string &ownerQual) const
    {
        // A simple identifier that is plausibly a member (and the
        // owner is a member function) is qualified by the class so
        // `mu_` means the same lock from every method. Everything
        // else keeps its spelled form.
        const bool simple =
            !expr.empty() &&
            expr.find_first_of(".:-<>()[]") == std::string::npos;
        auto pos = ownerQual.rfind("::");
        if (simple && pos != std::string::npos)
            return ownerQual.substr(0, pos) + "::" + expr;
        return expr;
    }

    /// Root (non-lambda) ancestor qual name, for lock qualification.
    std::string
    rootQual(int funcIdx) const
    {
        const Function *f =
            &prog_.functions[static_cast<std::size_t>(funcIdx)];
        while (f->parent >= 0)
            f = &prog_.functions[static_cast<std::size_t>(f->parent)];
        return f->qualName;
    }

    std::vector<std::string>
    heldNow(const std::vector<Guard> &guards) const
    {
        std::vector<std::string> held;
        held.reserve(guards.size());
        for (const auto &g : guards)
            held.push_back(g.lockId);
        return held;
    }

    /**
     * Scan a function body starting at its '{' (index @p lbrace).
     * Records call sites, lock events, lambdas (recursively), sysno
     * refs, raw counters and entries_ accesses into function
     * @p funcIdx. Returns the index of the matching '}'.
     */
    std::size_t
    scanBody(std::size_t lbrace, std::size_t limit, int funcIdx,
             const std::string &ownerQual)
    {
        int depth = 0;
        std::vector<OpenParen> parens;
        std::vector<Guard> guards;
        std::size_t i = lbrace;

        auto fn = [this, funcIdx]() -> Function & {
            return prog_.functions[static_cast<std::size_t>(funcIdx)];
        };
        auto inDeferral = [&parens]() {
            return std::any_of(parens.begin(), parens.end(),
                               [](const OpenParen &p) {
                                   return p.deferral;
                               });
        };

        for (; i < limit; ++i) {
            const Token &t = toks_[i];
            if (isPunct(t, "{")) {
                ++depth;
                continue;
            }
            if (isPunct(t, "}")) {
                --depth;
                // Block-scoped guards die with their block.
                guards.erase(
                    std::remove_if(guards.begin(), guards.end(),
                                   [depth](const Guard &g) {
                                       return g.depth > depth;
                                   }),
                    guards.end());
                if (depth == 0)
                    return i;
                continue;
            }
            if (isPunct(t, "(")) {
                OpenParen op;
                std::size_t nameIdx = 0; // 0 = not a call
                if (i > lbrace && isIdent(toks_[i - 1]) &&
                    keywords().count(toks_[i - 1].text) == 0) {
                    nameIdx = i - 1;
                } else if (i > lbrace && isPunct(toks_[i - 1], ">")) {
                    // Explicit template argument list:
                    // `min<std::uint64_t>(...)` — hop back over the
                    // balanced angle section to the name. Comparison
                    // and shift `>` fail the balance check and are
                    // left alone (as are cast keywords).
                    int d = 0;
                    std::size_t k = i - 1;
                    bool matched = false;
                    for (; k > lbrace && (i - 1) - k < 24; --k) {
                        if (isPunct(toks_[k], ">"))
                            ++d;
                        else if (isPunct(toks_[k], "<") && --d == 0) {
                            matched = true;
                            break;
                        }
                    }
                    if (matched && k > lbrace && isIdent(toks_[k - 1]) &&
                        keywords().count(toks_[k - 1].text) == 0)
                        nameIdx = k - 1;
                }
                if (nameIdx != 0) {
                    op.callee = toks_[nameIdx].text;
                    op.deferral = deferralSinks().count(op.callee) > 0;
                    CallSite cs;
                    cs.callee = op.callee;
                    // Explicit qualification: walk back over ident::
                    // pairs (e.g. std::fprintf, sim::Delay).
                    {
                        std::size_t k = nameIdx;
                        while (k >= 2 && isPunct(toks_[k - 1], "::") &&
                               isIdent(toks_[k - 2])) {
                            cs.qualifier =
                                toks_[k - 2].text +
                                (cs.qualifier.empty() ? "" : "::") +
                                cs.qualifier;
                            k -= 2;
                        }
                    }
                    // Receiver: the ident before a '.'/'->' ahead of
                    // the name — or, for a chained receiver like
                    // `p.fds().allocate(...)`, the innermost call's
                    // name ("fds").
                    if (cs.qualifier.empty() && nameIdx >= 2) {
                        const Token &sep = toks_[nameIdx - 1];
                        if (isPunct(sep, ".") || isPunct(sep, "->")) {
                            if (isIdent(toks_[nameIdx - 2])) {
                                cs.receiver = toks_[nameIdx - 2].text;
                            } else if (isPunct(toks_[nameIdx - 2], ")")) {
                                int d = 0;
                                std::size_t k = nameIdx - 2;
                                for (; k > 0; --k) {
                                    if (isPunct(toks_[k], ")"))
                                        ++d;
                                    else if (isPunct(toks_[k], "(") &&
                                             --d == 0)
                                        break;
                                }
                                if (k > 0 && isIdent(toks_[k - 1]))
                                    cs.receiver = toks_[k - 1].text;
                            }
                        }
                    }
                    cs.line = toks_[nameIdx].line;
                    cs.tokenIndex = nameIdx;
                    cs.deferred = inDeferral();
                    cs.heldLocks = heldNow(guards);
                    captureArgs(i, matchForward(i, "(", ")", limit),
                                cs);
                    // lock()/unlock() through a receiver are lock
                    // events, not interesting call sites.
                    if (cs.callee == "lock" || cs.callee == "unlock") {
                        handleManualLock(i, funcIdx, guards);
                    } else {
                        fn().calls.push_back(std::move(cs));
                    }
                }
                parens.push_back(op);
                continue;
            }
            if (isPunct(t, ")")) {
                if (!parens.empty())
                    parens.pop_back();
                continue;
            }
            if (isPunct(t, "[")) {
                // Lambda introducer iff not a subscript.
                const Token &prev = toks_[i - 1];
                const bool subscript =
                    isIdent(prev) || prev.kind == TokKind::Number ||
                    isPunct(prev, ")") || isPunct(prev, "]");
                if (!subscript &&
                    !(i + 1 < limit && isPunct(toks_[i + 1], "["))) {
                    std::size_t consumed = tryLambda(
                        i, limit, funcIdx, ownerQual, inDeferral());
                    if (consumed != i) {
                        i = consumed; // at lambda's '}'
                        continue;
                    }
                }
                continue;
            }
            if (!isIdent(t))
                continue;

            // sysno::name reference.
            if (t.text == "sysno" && i + 2 < limit &&
                isPunct(toks_[i + 1], "::") && isIdent(toks_[i + 2])) {
                fn().sysnoRefs.push_back(
                    {toks_[i + 2].text, toks_[i + 2].line});
                continue;
            }
            // entries_[...] read/write.
            if (t.text == "entries_" && i + 1 < limit &&
                isPunct(toks_[i + 1], "[")) {
                std::size_t rb = matchForward(i + 1, "[", "]", limit);
                bool write = false;
                if (rb + 1 < limit && isPunct(toks_[rb + 1], "=") &&
                    !(rb + 2 < limit && isPunct(toks_[rb + 2], "=")))
                    write = true;
                fn().entriesAccesses.push_back({write, t.line, i});
                continue;
            }
            // Scoped guard declarations.
            if (t.text == "lock_guard" || t.text == "unique_lock" ||
                t.text == "scoped_lock") {
                i = handleGuardDecl(i, limit, funcIdx, depth,
                                    guards);
                continue;
            }
        }
        return limit == 0 ? 0 : limit - 1;
    }

    /**
     * Parse `lock_guard<T> name(args)` (and unique_lock/scoped_lock)
     * starting at the template name token @p i. Records acquisitions
     * and guard lifetimes. Returns the index to resume from.
     */
    std::size_t
    handleGuardDecl(std::size_t i, std::size_t limit, int funcIdx,
                    int depth, std::vector<Guard> &guards)
    {
        Function &fn =
            prog_.functions[static_cast<std::size_t>(funcIdx)];
        const bool scoped = toks_[i].text == "scoped_lock";
        std::size_t j = i + 1;
        if (j < limit && isPunct(toks_[j], "<"))
            j = skipAngles(j, limit);
        if (j >= limit || !isIdent(toks_[j]))
            return i; // a mention, not a declaration
        const int line = toks_[j].line;
        ++j;
        if (j >= limit || !isPunct(toks_[j], "("))
            return i;
        std::size_t close = matchForward(j, "(", ")", limit);
        // Split args on top-level commas.
        std::vector<std::string> exprs;
        std::string cur;
        int pdepth = 0;
        for (std::size_t k = j + 1; k < close; ++k) {
            const Token &a = toks_[k];
            if (isPunct(a, "(") || isPunct(a, "[") || isPunct(a, "{"))
                ++pdepth;
            else if (isPunct(a, ")") || isPunct(a, "]") ||
                     isPunct(a, "}"))
                --pdepth;
            if (isPunct(a, ",") && pdepth == 0) {
                exprs.push_back(cur);
                cur.clear();
                continue;
            }
            cur += a.text;
        }
        if (!cur.empty())
            exprs.push_back(cur);
        // std::defer_lock: no acquisition happens here.
        for (const auto &e : exprs) {
            if (e.find("defer_lock") != std::string::npos)
                return close;
        }
        const std::string root = rootQual(funcIdx);
        // Snapshot once: members of a scoped_lock group are acquired
        // atomically, so no member is "held before" another.
        const std::vector<std::string> held = heldNow(guards);
        for (const auto &e : exprs) {
            if (e.find("adopt_lock") != std::string::npos ||
                e.find("try_to_lock") != std::string::npos)
                continue;
            LockEvent ev;
            ev.lockId = qualifyLock(e, root);
            ev.acquire = true;
            ev.line = line;
            ev.tokenIndex = j;
            ev.heldBefore = held;
            ev.atomicGroup = scoped && exprs.size() > 1;
            fn.lockEvents.push_back(ev);
            guards.push_back({ev.lockId, depth});
        }
        return close;
    }

    /** Manual x.lock() / x->unlock(); @p lparen is the '(' index. */
    void
    handleManualLock(std::size_t lparen, int funcIdx,
                     std::vector<Guard> &guards)
    {
        // toks_[lparen-1] is lock/unlock; receiver sits before a
        // '.'/'->' at lparen-2.
        if (lparen < 3)
            return;
        const Token &dot = toks_[lparen - 2];
        if (!isPunct(dot, ".") && !isPunct(dot, "->"))
            return; // free lock()/unlock(): not a mutex op we model
        const Token &recv = toks_[lparen - 3];
        if (!isIdent(recv))
            return;
        Function &fn =
            prog_.functions[static_cast<std::size_t>(funcIdx)];
        const std::string lockId =
            qualifyLock(recv.text, rootQual(funcIdx));
        if (toks_[lparen - 1].text == "lock") {
            LockEvent ev;
            ev.lockId = lockId;
            ev.acquire = true;
            ev.line = recv.line;
            ev.tokenIndex = lparen - 1;
            ev.heldBefore = heldNow(guards);
            fn.lockEvents.push_back(ev);
            guards.push_back({lockId, 0});
            return;
        }
        // unlock: drop the most recent matching guard.
        for (auto it = guards.rbegin(); it != guards.rend(); ++it) {
            if (it->lockId == lockId) {
                guards.erase(std::next(it).base());
                break;
            }
        }
    }

    /**
     * Try to parse a lambda whose '[' is at @p i. On success, records
     * a child function for the body and returns the index of the
     * body's closing '}'. Returns @p i unchanged when this bracket is
     * not a lambda.
     */
    std::size_t
    tryLambda(std::size_t i, std::size_t limit, int parentIdx,
              const std::string &ownerQual, bool deferredCtx)
    {
        std::size_t rb = matchForward(i, "[", "]", limit);
        if (rb >= limit)
            return i;
        std::size_t j = rb + 1;
        if (j < limit && isPunct(toks_[j], "("))
            j = matchForward(j, "(", ")", limit) + 1;
        while (j < limit && isIdent(toks_[j]) &&
               (toks_[j].text == "mutable" ||
                toks_[j].text == "constexpr" ||
                toks_[j].text == "noexcept"))
            ++j;
        if (j < limit && isPunct(toks_[j], "->")) {
            ++j;
            while (j < limit && !isPunct(toks_[j], "{") &&
                   !isPunct(toks_[j], ";") && !isPunct(toks_[j], ",") &&
                   !isPunct(toks_[j], ")")) {
                if (isPunct(toks_[j], "<")) {
                    j = skipAngles(j, limit);
                    continue;
                }
                ++j;
            }
        }
        if (j >= limit || !isPunct(toks_[j], "{"))
            return i;

        const int funcIdx = static_cast<int>(prog_.functions.size());
        Function fn;
        fn.qualName = ownerQual + "::<lambda>";
        fn.shortName = "<lambda>";
        fn.fileIndex = fileIndex_;
        fn.line = toks_[i].line;
        fn.bodyBegin = j;
        fn.parent = parentIdx;
        fn.isLambda = true;
        fn.deferred = deferredCtx;
        prog_.functions.push_back(std::move(fn));
        std::size_t end = scanBody(j, limit, funcIdx, ownerQual);
        prog_.functions[static_cast<std::size_t>(funcIdx)].bodyEnd =
            end;
        return end;
    }

    /// A dominating sign guard and the token range it covers.
    struct GuardRange
    {
        std::string name;
        bool nonNeg = false; ///< true: name >= 0 past the guard
        std::size_t begin = 0;
        std::size_t end = 0; ///< inclusive (the block's '}')
    };

    /**
     * Find dominating sign guards and stamp their facts onto call
     * sites: `if (x < 0) return ...;` proves x non-negative from the
     * guard to the end of its enclosing brace block, and
     * `if (x >= 0) return ...;` proves it negative. The guarded
     * statement must divert control (a lone return/co_return, or a
     * block starting with one); anything else contributes no fact.
     * The callgraph uses these to prune sites unreachable under a
     * caller-provided sign context — the pread/pwrite handlers guard
     * `off < 0` with -EINVAL, so the stream/pipe parks behind the
     * callee's `pos_override >= 0` -ESPIPE return cannot be reached.
     */
    void
    markGuardFacts()
    {
        std::vector<GuardRange> ranges;
        std::vector<std::size_t> braces;
        for (std::size_t i = 0; i < toks_.size(); ++i) {
            const Token &t = toks_[i];
            if (isPunct(t, "{")) {
                braces.push_back(i);
                continue;
            }
            if (isPunct(t, "}")) {
                if (!braces.empty())
                    braces.pop_back();
                continue;
            }
            if (!isIdent(t) || t.text != "if" || braces.empty())
                continue;
            if (i + 5 >= toks_.size() || !isPunct(toks_[i + 1], "(") ||
                !isIdent(toks_[i + 2]))
                continue;
            std::size_t r = 0; // index of the condition's ')'
            bool nonNeg = false;
            if (isPunct(toks_[i + 3], "<") &&
                toks_[i + 4].kind == TokKind::Number &&
                toks_[i + 4].text == "0" && isPunct(toks_[i + 5], ")")) {
                r = i + 5;
                nonNeg = true;
            } else if (i + 6 < toks_.size() &&
                       isPunct(toks_[i + 3], ">") &&
                       isPunct(toks_[i + 4], "=") &&
                       toks_[i + 5].kind == TokKind::Number &&
                       toks_[i + 5].text == "0" &&
                       isPunct(toks_[i + 6], ")")) {
                r = i + 6;
                nonNeg = false;
            } else {
                continue;
            }
            std::size_t stmtEnd = 0;
            if (r + 1 < toks_.size() && isIdent(toks_[r + 1]) &&
                (toks_[r + 1].text == "return" ||
                 toks_[r + 1].text == "co_return")) {
                std::size_t s = r + 1;
                while (s < toks_.size() && !isPunct(toks_[s], ";"))
                    ++s;
                stmtEnd = s;
            } else if (r + 2 < toks_.size() &&
                       isPunct(toks_[r + 1], "{") &&
                       isIdent(toks_[r + 2]) &&
                       (toks_[r + 2].text == "return" ||
                        toks_[r + 2].text == "co_return")) {
                stmtEnd = matchForward(r + 1, "{", "}", toks_.size());
            } else {
                continue;
            }
            const std::size_t blockEnd =
                matchForward(braces.back(), "{", "}", toks_.size());
            if (stmtEnd + 1 >= blockEnd)
                continue;
            ranges.push_back(
                {toks_[i + 2].text, nonNeg, stmtEnd + 1, blockEnd});
        }
        if (ranges.empty())
            return;
        for (Function &f : prog_.functions) {
            if (f.fileIndex != fileIndex_)
                continue;
            for (CallSite &c : f.calls) {
                for (const GuardRange &g : ranges) {
                    if (c.tokenIndex < g.begin ||
                        c.tokenIndex > g.end)
                        continue;
                    (g.nonNeg ? c.nonNegHere : c.negHere)
                        .insert(g.name);
                }
            }
        }
    }

    Program &prog_;
    const LexedFile &file_;
    const std::vector<Token> &toks_;
    int fileIndex_;
};

} // namespace

void
extractFile(Program &prog, int fileIndex)
{
    FileExtractor ex(prog, fileIndex);
    ex.run();
}

void
indexFunctions(Program &prog)
{
    prog.byShortName.clear();
    prog.byQualName.clear();
    for (std::size_t idx = 0; idx < prog.functions.size(); ++idx) {
        const Function &f = prog.functions[idx];
        if (f.isLambda)
            continue;
        prog.byQualName.emplace(f.qualName, static_cast<int>(idx));
        const std::size_t sep = f.qualName.find("::");
        if (sep != std::string::npos &&
            prog.opaqueClasses.count(f.qualName.substr(0, sep)) != 0)
            continue;
        prog.byShortName[f.shortName].push_back(
            static_cast<int>(idx));
    }
}

} // namespace genesys::analysis
