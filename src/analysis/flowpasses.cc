/**
 * @file
 * gflow's ownership and GPU-taint dataflow passes (DESIGN.md §16).
 *
 * Both passes lower each root function (lambda bodies stay inside
 * their parent's statement spans; their call sites are merged back by
 * token index) and enumerate paths with the PathWalker. Ownership
 * tracks an acquire→release lattice per resource variable with
 * branch-edge kill semantics for conditional acquires; taint tracks a
 * tainted/bounded/window lattice with direction-aware sanitizers and
 * bottom-up callee parameter summaries.
 */

#include "analysis/flowpasses.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/cfg.hh"
#include "analysis/dataflow.hh"

namespace genesys::analysis
{

namespace
{

bool
isId(const Token &t)
{
    return t.kind == TokKind::Ident;
}

bool
isId(const Token &t, const char *text)
{
    return t.kind == TokKind::Ident && t.text == text;
}

bool
isP(const Token &t, const char *text)
{
    return t.kind == TokKind::Punct && t.text == text;
}

std::string
fmtStep(const std::string &path, int line, const std::string &what)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, ":%d: ", line);
    return path + buf + what;
}

/** All call sites lexically inside functions[rootIdx]'s span: its own
 *  plus every descendant lambda's, sorted by token index. */
std::vector<const CallSite *>
collectCalls(const Program &prog, int rootIdx)
{
    std::vector<const CallSite *> out;
    for (std::size_t fi = 0; fi < prog.functions.size(); ++fi) {
        int cur = static_cast<int>(fi);
        bool under = false;
        while (cur >= 0) {
            if (cur == rootIdx) {
                under = true;
                break;
            }
            cur = prog.functions[static_cast<std::size_t>(cur)].parent;
        }
        if (!under)
            continue;
        for (const CallSite &c : prog.functions[fi].calls)
            out.push_back(&c);
    }
    std::sort(out.begin(), out.end(),
              [](const CallSite *a, const CallSite *b) {
                  return a->tokenIndex < b->tokenIndex;
              });
    return out;
}

/** Calls whose name token lies in [b, e). */
template <typename Fn>
void
forCallsIn(const std::vector<const CallSite *> &calls, std::size_t b,
           std::size_t e, Fn fn)
{
    for (const CallSite *c : calls) {
        if (c->tokenIndex >= e)
            break;
        if (c->tokenIndex >= b)
            fn(*c);
    }
}

/** Top-level '=' of span [b, e): returns its index (or e) and whether
 *  it is a compound assignment (+=, &=, ...). Comparison operators
 *  and nested spans are skipped. */
std::pair<std::size_t, bool>
findAssign(const std::vector<Token> &toks, std::size_t b, std::size_t e)
{
    int depth = 0;
    for (std::size_t j = b; j < e; ++j) {
        const Token &t = toks[j];
        if (isP(t, "(") || isP(t, "[") || isP(t, "{")) {
            ++depth;
            continue;
        }
        if (isP(t, ")") || isP(t, "]") || isP(t, "}")) {
            --depth;
            continue;
        }
        if (depth != 0 || !isP(t, "="))
            continue;
        if (j + 1 < e && isP(toks[j + 1], "="))
            { ++j; continue; } // ==
        if (j > b && (isP(toks[j - 1], "=") || isP(toks[j - 1], "!") ||
                      isP(toks[j - 1], "<") || isP(toks[j - 1], ">")))
            continue; // ==, !=, <=, >=
        if (j > b && (isP(toks[j - 1], "+") || isP(toks[j - 1], "-") ||
                      isP(toks[j - 1], "*") || isP(toks[j - 1], "/") ||
                      isP(toks[j - 1], "%") || isP(toks[j - 1], "&") ||
                      isP(toks[j - 1], "|") || isP(toks[j - 1], "^")))
            return {j, true};
        return {j, false};
    }
    return {e, false};
}

/** Declared/assigned variable of a plain assignment: the last
 *  identifier of [b, eq) — "" when the lhs is a member, subscript, or
 *  dereferenced store rather than a simple variable. */
std::string
lhsVar(const std::vector<Token> &toks, std::size_t b, std::size_t eq)
{
    std::string last;
    for (std::size_t j = b; j < eq; ++j) {
        const Token &t = toks[j];
        if (isP(t, ".") || isP(t, "->") || isP(t, "["))
            return "";
        if (!isId(t))
            continue;
        if (j + 1 < eq && isP(toks[j + 1], "::"))
            continue;
        if (j > b && isP(toks[j - 1], "::"))
            continue;
        last = t.text;
    }
    return last;
}

/** Variable bound by the nearest '=' left of token @p at inside
 *  [b, at): handles parenthesized forms like `while ((x = f()))`. */
std::string
boundVarBefore(const std::vector<Token> &toks, std::size_t b,
               std::size_t at)
{
    for (std::size_t j = at; j > b; --j) {
        if (!isP(toks[j - 1], "="))
            continue;
        if (j >= 2 && (isP(toks[j - 2], "=") || isP(toks[j - 2], "!") ||
                       isP(toks[j - 2], "<") || isP(toks[j - 2], ">")))
            continue;
        if (j < at && isP(toks[j], "="))
            continue;
        if (j >= 2 && isId(toks[j - 2]))
            return toks[j - 2].text;
        return "";
    }
    return "";
}

/** Per-position argument token spans of a call site. Template heads
 *  (`as<int>(0)`) are skipped so their commas don't split. */
std::vector<std::pair<std::size_t, std::size_t>>
argSpans(const std::vector<Token> &toks, const CallSite &cs)
{
    std::vector<std::pair<std::size_t, std::size_t>> out;
    std::size_t lp = cs.tokenIndex + 1;
    // `f<T>(...)`: hop over the template section to the '('.
    if (lp < toks.size() && isP(toks[lp], "<")) {
        int d = 0;
        for (std::size_t j = lp; j < toks.size() && j < lp + 24; ++j) {
            if (isP(toks[j], "<"))
                ++d;
            else if (isP(toks[j], ">") && --d == 0) {
                lp = j + 1;
                break;
            }
        }
    }
    if (lp >= toks.size() || !isP(toks[lp], "("))
        return out;
    int depth = 0;
    std::size_t start = lp + 1;
    for (std::size_t j = lp; j < toks.size(); ++j) {
        const Token &t = toks[j];
        if (isP(t, "(") || isP(t, "[") || isP(t, "{")) {
            ++depth;
            continue;
        }
        if (isP(t, ")") || isP(t, "]") || isP(t, "}")) {
            if (--depth == 0) {
                if (j > start)
                    out.push_back({start, j});
                return out;
            }
            continue;
        }
        if (depth == 1 && isP(t, ",")) {
            out.push_back({start, j});
            start = j + 1;
        } else if (depth == 1 && isId(t) && j + 1 < toks.size() &&
                   isP(toks[j + 1], "<")) {
            // Possible template head inside an argument.
            int d = 0;
            for (std::size_t k = j + 1;
                 k < toks.size() && k < j + 24; ++k) {
                if (isP(toks[k], "<"))
                    ++d;
                else if (isP(toks[k], ">")) {
                    if (--d == 0) {
                        if (k + 1 < toks.size() &&
                            isP(toks[k + 1], "("))
                            j = k;
                        break;
                    }
                } else if (isP(toks[k], ";") || isP(toks[k], ","))
                    break;
            }
        }
    }
    return out;
}

bool
spanHasIdent(const std::vector<Token> &toks, std::size_t b,
             std::size_t e, const char *name)
{
    for (std::size_t j = b; j < e; ++j)
        if (isId(toks[j], name))
            return true;
    return false;
}

// ====================================================================
// Ownership pass
// ====================================================================

enum class ResKind
{
    Fd = 0,
    RingClaim,
    Slot,
    NetSeg,
    Epoll,
};

const char *
resKindName(ResKind k)
{
    switch (k) {
    case ResKind::Fd:
        return "fd";
    case ResKind::RingClaim:
        return "ring-claim";
    case ResKind::Slot:
        return "slot";
    case ResKind::NetSeg:
        return "netseg-loan";
    case ResKind::Epoll:
        return "epoll-interest";
    }
    return "?";
}

const char *
resRule(ResKind k)
{
    switch (k) {
    case ResKind::Fd:
        return "must-release-fd";
    case ResKind::RingClaim:
        return "must-release-ring-claim";
    case ResKind::Slot:
        return "must-release-slot";
    case ResKind::NetSeg:
        return "must-release-netseg";
    case ResKind::Epoll:
        return "must-release-epoll";
    }
    return "?";
}

const char *
resReleaseName(ResKind k)
{
    switch (k) {
    case ResKind::Fd:
        return "close()";
    case ResKind::RingClaim:
        return "tryPublish()";
    case ResKind::Slot:
        return "complete()";
    case ResKind::NetSeg:
        return "transferring the loaned segments to an owner";
    case ResKind::Epoll:
        return "EPOLL_CTL_DEL";
    }
    return "?";
}

struct Res
{
    ResKind kind = ResKind::Fd;
    std::string var;
    int line = 0;
    /// Acquire may have failed; killed by the failure edge
    /// (Falsy / negative-result facts) until confirmed.
    bool conditional = false;
    /// The acquiring callee: a call-atom branch on it decides the
    /// acquire (`beginProcessing`, or a wrapper such as `take`).
    std::string acquiredBy;
};

struct OwnState
{
    std::map<std::string, Res> live;
    /// aliasVar -> live key (`auto &seg = segs[i]`).
    std::map<std::string, std::string> alias;
    /// guardVar -> live key: a variable whose sign decides whether
    /// the acquire happened (`got = readSegments(...)`).
    std::map<std::string, std::string> guard;
    std::set<std::string> posKnown; ///< proven > 0
    std::set<std::string> zeroInit; ///< last assigned literal 0
    bool dead = false;              ///< contradictory branch facts
};

/// Container-handoff callees that transfer ownership of an argument.
const std::set<std::string> &
escapeSinks()
{
    static const std::set<std::string> s = {
        "push_back", "emplace_back", "insert", "emplace", "assign",
    };
    return s;
}

class OwnershipPass
{
  public:
    explicit OwnershipPass(CallGraph &cg)
        : cg_(cg), prog_(cg.program())
    {
    }

    std::vector<Finding>
    run()
    {
        for (std::size_t i = 0; i < prog_.functions.size(); ++i) {
            const Function &fn = prog_.functions[i];
            if (fn.isLambda || fn.parent >= 0 ||
                fn.bodyEnd <= fn.bodyBegin + 1)
                continue;
            analyze(static_cast<int>(i));
        }
        sortFindings(findings_);
        return std::move(findings_);
    }

    // --- PathWalker client interface -------------------------------
    void
    onSimple(const FlowStmt &s, OwnState &st)
    {
        processSpan(s.begin, s.end, st, false);
    }

    void
    onCondition(const FlowStmt &s, OwnState &st)
    {
        processSpan(s.condBegin, s.condEnd, st, false);
    }

    void
    onBranch(const FlowStmt &s, bool sense, OwnState &st)
    {
        const auto facts =
            parseCondFacts(*toks_, s.condBegin, s.condEnd, sense);
        for (const CondFact &f : facts)
            applyFact(f, st);
    }

    void
    onRangeFor(const FlowStmt &s, OwnState &st)
    {
        if (s.loopVar.empty())
            return;
        const std::string key = resolve(st, s.rangeRoot);
        if (!key.empty())
            st.alias[s.loopVar] = key;
    }

    void
    onExit(const FlowStmt *s, ExitKind kind, OwnState &st,
           const std::vector<PathStep> &trace)
    {
        if (st.dead || kind == ExitKind::InfiniteLoop ||
            st.live.empty())
            return;
        // A resource whose root appears in the return (or throw)
        // value transfers to the caller.
        if (s != nullptr) {
            for (std::size_t j = s->begin; j < s->end; ++j) {
                if (!isId((*toks_)[j]))
                    continue;
                const std::string key =
                    resolve(st, (*toks_)[j].text);
                if (!key.empty())
                    st.live.erase(key);
            }
        }
        const int exitLine =
            s != nullptr ? s->line : (*toks_)[fn_->bodyEnd].line;
        const char *how = kind == ExitKind::Return ? "return"
                          : kind == ExitKind::Throw
                              ? "throw"
                              : "end of function";
        for (const auto &[var, res] : st.live) {
            const std::string key = path_ + ":" +
                                    std::to_string(res.line) + ":" +
                                    resRule(res.kind);
            if (!reported_.insert(key).second)
                continue;
            Finding f;
            f.path = path_;
            f.line = res.line;
            f.rule = resRule(res.kind);
            f.message = std::string(resKindName(res.kind)) + " '" +
                        var + "' acquired in " + fn_->qualName +
                        " leaks on a path ending at line " +
                        std::to_string(exitLine) + " (" + how +
                        ") without " + resReleaseName(res.kind);
            f.witness.push_back(fmtStep(
                path_, res.line,
                std::string("acquired ") + resKindName(res.kind) +
                    " '" + var + "' here"));
            appendTrace(f.witness, trace);
            f.witness.push_back(fmtStep(
                path_, exitLine,
                std::string("path ends (") + how + ") with '" + var +
                    "' unreleased"));
            findings_.push_back(std::move(f));
        }
    }

  private:
    void
    analyze(int fnIdx)
    {
        fn_ = &prog_.functions[static_cast<std::size_t>(fnIdx)];
        toks_ = &prog_.fileOf(*fn_).tokens;
        path_ = prog_.fileOf(*fn_).path;
        calls_ = collectCalls(prog_, fnIdx);
        const FlowTree tree = lowerFunction(prog_, fnIdx);
        PathWalker<OwnState, OwnershipPass> walker(tree, *this, 200);
        walker.run(OwnState{});
    }

    void
    appendTrace(std::vector<std::string> &witness,
                const std::vector<PathStep> &trace) const
    {
        // Keep the witness compact: first and last few decisions.
        const std::size_t n = trace.size();
        for (std::size_t j = 0; j < n; ++j) {
            if (n > 6 && j == 3) {
                witness.push_back("    ...");
                j = n - 3;
            }
            witness.push_back(fmtStep(path_, trace[j].line,
                                      trace[j].sense
                                          ? "branch taken"
                                          : "branch not taken"));
        }
    }

    /// Resolve a name through aliases to a live-resource key ("" if
    /// it doesn't name a live resource).
    std::string
    resolve(const OwnState &st, const std::string &name) const
    {
        if (name.empty())
            return "";
        auto a = st.alias.find(name);
        const std::string &key =
            a != st.alias.end() ? a->second : name;
        return st.live.count(key) != 0 ? key : "";
    }

    void
    release(OwnState &st, const std::string &key)
    {
        st.live.erase(key);
    }

    void
    processSpan(std::size_t b, std::size_t e, OwnState &st,
                bool isReturn)
    {
        if (st.dead || b >= e)
            return;
        forCallsIn(calls_, b, e, [&](const CallSite &cs) {
            if (cs.callee == "GENESYS_ASSERT") {
                // The asserted condition holds from here on: sign
                // facts (`got > 0`) feed guard confirmation and the
                // zero-iteration infeasibility check.
                const auto spans = argSpans(*toks_, cs);
                if (!spans.empty())
                    for (const CondFact &f :
                         parseCondFacts(*toks_, spans[0].first,
                                        spans[0].second, true))
                        applyFact(f, st);
                return;
            }
            handleRelease(cs, st);
            if (!isReturn)
                handleAcquire(cs, b, st);
        });
        handleAssign(b, e, st);
    }

    void
    handleRelease(const CallSite &cs, OwnState &st)
    {
        auto releaseArgRoot = [&](ResKind kind) {
            for (std::size_t p = 0; p < cs.argRoots.size(); ++p) {
                const std::string key = resolve(st, cs.argRoots[p]);
                if (key.empty())
                    continue;
                if (st.live[key].kind == kind) {
                    release(st, key);
                    return true;
                }
            }
            return false;
        };
        if (cs.callee == "close") {
            if (!cs.argRoots.empty()) {
                const std::string key = resolve(st, cs.argRoots[0]);
                if (!key.empty() &&
                    (st.live[key].kind == ResKind::Fd ||
                     st.live[key].kind == ResKind::Epoll))
                    release(st, key);
            }
            return;
        }
        if (cs.callee == "tryPublish") {
            releaseArgRoot(ResKind::RingClaim);
            return;
        }
        if (cs.callee == "complete") {
            const std::string key = resolve(st, cs.receiver);
            if (!key.empty() && st.live[key].kind == ResKind::Slot)
                release(st, key);
            return;
        }
        if (escapeSinks().count(cs.callee) != 0) {
            releaseArgRoot(ResKind::NetSeg);
            releaseArgRoot(ResKind::Fd);
            return;
        }
        if (cs.callee == "ctl") {
            for (std::size_t p = 0; p < cs.args.size(); ++p) {
                if (cs.args[p].rfind("EPOLL_CTL_DEL", 0) != 0)
                    continue;
                const std::string key =
                    p + 1 < cs.argRoots.size()
                        ? resolve(st, cs.argRoots[p + 1])
                        : std::string();
                if (!key.empty() &&
                    st.live[key].kind == ResKind::Epoll)
                    release(st, key);
                return;
            }
            return;
        }
        // std::move(x) into any call transfers ownership.
        for (std::size_t p = 0; p < cs.argRoots.size(); ++p) {
            const std::string key = resolve(st, cs.argRoots[p]);
            if (key.empty())
                continue;
            const auto spans = argSpans(*toks_, cs);
            if (p < spans.size() &&
                spanHasIdent(*toks_, spans[p].first, spans[p].second,
                             "move"))
                release(st, key);
        }
        // Callee-release summary: does the callee release this
        // argument (transitively)?
        for (std::size_t p = 0; p < cs.argRoots.size(); ++p) {
            const std::string key = resolve(st, cs.argRoots[p]);
            if (key.empty())
                continue;
            const ResKind kind = st.live[key].kind;
            for (int def : cg_.resolveDefs(cs)) {
                if (calleeReleasesParam(def, static_cast<int>(p),
                                        kind, 3)) {
                    release(st, key);
                    break;
                }
            }
        }
    }

    void
    handleAcquire(const CallSite &cs, std::size_t spanBegin,
                  OwnState &st)
    {
        auto bind = [&](ResKind kind, const std::string &var,
                        bool conditional,
                        const std::string &guardVar) {
            if (var.empty())
                return;
            Res r;
            r.kind = kind;
            r.var = var;
            r.line = cs.line;
            r.conditional = conditional;
            r.acquiredBy = cs.callee;
            st.live[var] = r;
            st.alias.erase(var);
            if (!guardVar.empty() && guardVar != var)
                st.guard[guardVar] = var;
        };
        if (cs.callee == "allocate" && cs.receiver == "fds") {
            bind(ResKind::Fd,
                 boundVarBefore(*toks_, spanBegin, cs.tokenIndex),
                 false, "");
            return;
        }
        if (cs.callee == "tryClaim") {
            bind(ResKind::RingClaim,
                 boundVarBefore(*toks_, spanBegin, cs.tokenIndex),
                 true, "");
            return;
        }
        if (cs.callee == "beginProcessing" && !cs.receiver.empty()) {
            const std::string bound =
                boundVarBefore(*toks_, spanBegin, cs.tokenIndex);
            bind(ResKind::Slot, cs.receiver, true, bound);
            return;
        }
        for (int def : cg_.resolveDefs(cs)) {
            const int p = slotTakeParam(def);
            if (p >= 0 && p < static_cast<int>(cs.argRoots.size())) {
                const std::string bound =
                    boundVarBefore(*toks_, spanBegin, cs.tokenIndex);
                bind(ResKind::Slot,
                     cs.argRoots[static_cast<std::size_t>(p)], true,
                     bound);
                return;
            }
        }
        if (cs.callee == "readSegments" && !cs.argRoots.empty() &&
            !cs.argRoots[0].empty()) {
            const std::string bound =
                boundVarBefore(*toks_, spanBegin, cs.tokenIndex);
            bind(ResKind::NetSeg, cs.argRoots[0], true, bound);
            return;
        }
        if (cs.callee == "ctl") {
            for (std::size_t p = 0; p < cs.args.size(); ++p) {
                if (cs.args[p].rfind("EPOLL_CTL_ADD", 0) != 0)
                    continue;
                const std::string key =
                    p + 1 < cs.argRoots.size() ? cs.argRoots[p + 1]
                                               : std::string();
                bind(ResKind::Epoll,
                     key.empty() ? cs.receiver : key, false, "");
                return;
            }
        }
    }

    void
    handleAssign(std::size_t b, std::size_t e, OwnState &st)
    {
        const auto [eq, compound] = findAssign(*toks_, b, e);
        if (eq >= e || compound)
            return;
        const std::string lhs = lhsVar(*toks_, b, eq);
        if (lhs.empty()) {
            // Member/subscript store: a tracked resource on the rhs
            // escapes into an owner.
            for (std::size_t j = eq + 1; j < e; ++j) {
                if (!isId((*toks_)[j]))
                    continue;
                const std::string key =
                    resolve(st, (*toks_)[j].text);
                if (!key.empty())
                    release(st, key);
            }
            // `segs[i] = NetSeg{}`: a subscript store INTO the loan
            // container overwrites that slot, dropping its loan by
            // hand (the gkv zero-copy reclaim idiom).
            for (std::size_t j = b; j + 1 < eq; ++j) {
                if (!isId((*toks_)[j]) || !isP((*toks_)[j + 1], "["))
                    continue;
                const std::string key =
                    resolve(st, (*toks_)[j].text);
                if (!key.empty() &&
                    st.live[key].kind == ResKind::NetSeg)
                    release(st, key);
            }
            return;
        }
        // Literal-zero inits feed the loop-infeasibility check.
        if (e == eq + 2 && (*toks_)[eq + 1].kind == TokKind::Number &&
            (*toks_)[eq + 1].text == "0")
            st.zeroInit.insert(lhs);
        else
            st.zeroInit.erase(lhs);
        // `auto &seg = segs[i]` aliases the element to the resource.
        if (st.live.count(lhs) == 0) {
            const std::string rhsRoot = spanRoot(*toks_, eq + 1, e);
            const std::string key = resolve(st, rhsRoot);
            if (!key.empty() && key != lhs)
                st.alias[lhs] = key;
            else
                st.alias.erase(lhs);
        }
    }

    void
    applyFact(const CondFact &f, OwnState &st)
    {
        if (st.dead)
            return;
        // Call-atom: `if (!slot.beginProcessing())` or
        // `if (!core.take(slot, t))` — this edge decides the acquire
        // that call made on its receiver or first argument.
        if (!f.callCallee.empty()) {
            for (const std::string *root :
                 {&f.callReceiver, &f.callArgRoot}) {
                const std::string key = resolve(st, *root);
                if (key.empty() || !st.live[key].conditional ||
                    st.live[key].acquiredBy != f.callCallee)
                    continue;
                if (f.kind == CondFact::Kind::Falsy)
                    release(st, key);
                else if (f.kind == CondFact::Kind::Truthy)
                    st.live[key].conditional = false;
                return;
            }
            if (f.callCallee == "beginProcessing")
                return;
        }
        // Guard variables decide the acquire they guard.
        std::string target = resolve(st, f.subject);
        auto g = st.guard.find(f.subject);
        if (target.empty() && g != st.guard.end() &&
            st.live.count(g->second) != 0)
            target = g->second;
        if (!target.empty() && st.live[target].conditional) {
            switch (f.kind) {
            case CondFact::Kind::Falsy:
                release(st, target);
                break;
            case CondFact::Kind::Truthy:
                st.live[target].conditional = false;
                break;
            case CondFact::Kind::Cmp:
                if (f.rhsIsZero &&
                    (f.op == "<" || f.op == "<=" || f.op == "=="))
                    release(st, target); // error/empty result
                else if (f.rhsIsZero &&
                         (f.op == ">" || f.op == ">="))
                    st.live[target].conditional = false;
                break;
            }
        }
        // Sign facts and path infeasibility.
        if (f.kind == CondFact::Kind::Cmp && f.rhsIsZero &&
            f.op == ">")
            st.posKnown.insert(f.subject);
        if (f.kind == CondFact::Kind::Cmp &&
            st.posKnown.count(f.subject) != 0 && f.rhsIsZero &&
            (f.op == "<" || f.op == "<=" || f.op == "=="))
            st.dead = true; // contradicts subject > 0
        if (f.kind == CondFact::Kind::Falsy &&
            st.posKnown.count(f.subject) != 0)
            st.dead = true;
        // Zero-init loop counter vs a proven-positive bound: the
        // zero-iteration edge `i >= got` with i == 0 and got > 0 is
        // infeasible (the recvmsg loan-distribution loop).
        if (f.kind == CondFact::Kind::Cmp && f.op == ">=" &&
            st.zeroInit.count(f.subject) != 0 &&
            st.posKnown.count(f.rhsRoot) != 0)
            st.dead = true;
        if (f.kind == CondFact::Kind::Cmp && f.op == "<=" &&
            st.posKnown.count(f.subject) != 0 &&
            st.zeroInit.count(f.rhsRoot) != 0)
            st.dead = true;
    }

    /// The parameter functions[def] hands back to its caller as a
    /// conditionally-taken slot — its body returns
    /// `param.beginProcessing()` (ServiceCore::take) — or -1.
    int
    slotTakeParam(int def)
    {
        auto it = takeMemo_.find(def);
        if (it != takeMemo_.end())
            return it->second;
        const Function &fn =
            prog_.functions[static_cast<std::size_t>(def)];
        const std::vector<Token> &toks = prog_.fileOf(fn).tokens;
        int found = -1;
        for (const CallSite &c : fn.calls) {
            if (c.callee != "beginProcessing" || c.tokenIndex < 3 ||
                !isId(toks[c.tokenIndex - 3], "return"))
                continue;
            for (std::size_t p = 0; p < fn.params.size(); ++p)
                if (!c.receiver.empty() && fn.params[p] == c.receiver)
                    found = static_cast<int>(p);
        }
        takeMemo_[def] = found;
        return found;
    }

    /// Does functions[def] release parameter @p paramIdx of kind
    /// @p kind on some path (a may-release used to credit the
    /// caller)? Transitive through simple argument forwarding.
    bool
    calleeReleasesParam(int def, int paramIdx, ResKind kind,
                        int depth)
    {
        if (depth <= 0)
            return false;
        const Function &fn =
            prog_.functions[static_cast<std::size_t>(def)];
        if (paramIdx < 0 ||
            paramIdx >= static_cast<int>(fn.params.size()))
            return false;
        const std::string &p =
            fn.params[static_cast<std::size_t>(paramIdx)];
        if (p.empty())
            return false;
        const auto memoKey = std::make_tuple(def, paramIdx,
                                             static_cast<int>(kind));
        auto it = releaseMemo_.find(memoKey);
        if (it != releaseMemo_.end())
            return it->second;
        releaseMemo_[memoKey] = false; // recursion guard
        bool releases = false;
        for (const CallSite &c : fn.calls) {
            const bool onParam =
                (!c.argRoots.empty() && c.argRoots[0] == p) ||
                c.receiver == p;
            if (onParam) {
                if ((kind == ResKind::Fd && c.callee == "close") ||
                    (kind == ResKind::RingClaim &&
                     c.callee == "tryPublish") ||
                    (kind == ResKind::Slot && c.callee == "complete" &&
                     c.receiver == p) ||
                    (kind == ResKind::NetSeg &&
                     escapeSinks().count(c.callee) != 0)) {
                    releases = true;
                    break;
                }
            }
            for (std::size_t q = 0; q < c.argRoots.size() && !releases;
                 ++q) {
                if (c.argRoots[q] != p)
                    continue;
                for (int sub : cg_.resolveDefs(c)) {
                    if (calleeReleasesParam(sub,
                                            static_cast<int>(q), kind,
                                            depth - 1)) {
                        releases = true;
                        break;
                    }
                }
            }
            if (releases)
                break;
        }
        releaseMemo_[memoKey] = releases;
        return releases;
    }

    CallGraph &cg_;
    const Program &prog_;
    const Function *fn_ = nullptr;
    const std::vector<Token> *toks_ = nullptr;
    std::string path_;
    std::vector<const CallSite *> calls_;
    std::vector<Finding> findings_;
    std::set<std::string> reported_;
    std::map<std::tuple<int, int, int>, bool> releaseMemo_;
    std::map<int, int> takeMemo_;
};

// ====================================================================
// Taint pass
// ====================================================================

struct TaintState
{
    /// var -> origin line (first taint site in this function).
    std::map<std::string, int> tainted;
    /// Loop counters bounded above only by a tainted value.
    std::set<std::string> bounded;
    /// Pointers into GPU-shared windows (args.ptr<T>() and friends).
    std::set<std::string> gpuPtr;
};

/// A callee parameter's path to a sink, for call-site reporting.
struct ParamSinkSummary
{
    std::string rule;
    std::vector<std::string> steps; ///< formatted, outermost first
};

class TaintPass
{
  public:
    explicit TaintPass(CallGraph &cg) : cg_(cg), prog_(cg.program())
    {
    }

    std::vector<Finding>
    run()
    {
        for (std::size_t i = 0; i < prog_.functions.size(); ++i) {
            const Function &fn = prog_.functions[i];
            if (fn.isLambda || fn.parent >= 0 ||
                fn.bodyEnd <= fn.bodyBegin + 1)
                continue;
            analyzeEntry(static_cast<int>(i));
        }
        sortFindings(findings_);
        return std::move(findings_);
    }

    // --- PathWalker client interface -------------------------------
    void
    onSimple(const FlowStmt &s, TaintState &st)
    {
        scanSinks(s.begin, s.end, st);
        applyAssign(s.begin, s.end, st);
    }

    void
    onCondition(const FlowStmt &s, TaintState &st)
    {
        scanCondition(s.condBegin, s.condEnd, st);
        applyAssign(s.condBegin, s.condEnd, st);
    }

    void
    onBranch(const FlowStmt &s, bool sense, TaintState &st)
    {
        const auto facts =
            parseCondFacts(*toks_, s.condBegin, s.condEnd, sense);
        for (const CondFact &f : facts)
            applyFact(f, st);
    }

    void
    onRangeFor(const FlowStmt &s, TaintState &st)
    {
        (void)s;
        (void)st;
    }

    void
    onExit(const FlowStmt *s, ExitKind kind, TaintState &st,
           const std::vector<PathStep> &trace)
    {
        (void)kind;
        (void)trace;
        if (s != nullptr && s->begin < s->end)
            scanSinks(s->begin, s->end, st);
    }

  private:
    void
    analyzeEntry(int fnIdx)
    {
        setupFunction(fnIdx);
        summaryMode_ = false;
        summaryOut_ = nullptr;
        const FlowTree tree = lowerFunction(prog_, fnIdx);
        PathWalker<TaintState, TaintPass> walker(tree, *this, 200);
        walker.run(TaintState{});
    }

    void
    setupFunction(int fnIdx)
    {
        fnIdx_ = fnIdx;
        fn_ = &prog_.functions[static_cast<std::size_t>(fnIdx)];
        toks_ = &prog_.fileOf(*fn_).tokens;
        path_ = prog_.fileOf(*fn_).path;
        calls_ = collectCalls(prog_, fnIdx);
    }

    // --- sources ---------------------------------------------------
    /// `args.a[...]` / `args.as<T>(...)` scalar payload read in
    /// [b, e)? (`args.ptr` yields a pre-translated pointer, handled
    /// as a window, not a scalar taint.)
    bool
    spanHasScalarSource(std::size_t b, std::size_t e) const
    {
        const std::vector<Token> &toks = *toks_;
        for (std::size_t j = b; j + 3 < e; ++j) {
            if (!isId(toks[j], "args") || !isP(toks[j + 1], "."))
                continue;
            if (isId(toks[j + 2], "a") && isP(toks[j + 3], "["))
                return true;
            if (isId(toks[j + 2], "as") && isP(toks[j + 3], "<"))
                return true;
        }
        return false;
    }

    bool
    spanHasPtrSource(std::size_t b, std::size_t e) const
    {
        const std::vector<Token> &toks = *toks_;
        for (std::size_t j = b; j + 3 < e; ++j) {
            if (isId(toks[j], "args") && isP(toks[j + 1], ".") &&
                isId(toks[j + 2], "ptr") && isP(toks[j + 3], "<"))
                return true;
        }
        return false;
    }

    /// Host-side SQ consumption: the popped value is GPU-written.
    bool
    spanHasRingPop(std::size_t b, std::size_t e) const
    {
        bool found = false;
        forCallsIn(calls_, b, e, [&](const CallSite &cs) {
            if (cs.callee == "tryPopRingEntry")
                found = true;
        });
        return found;
    }

    /// Is the value of expression [b, e) tainted under @p st?
    bool
    spanTainted(const TaintState &st, std::size_t b,
                std::size_t e) const
    {
        const std::vector<Token> &toks = *toks_;
        if (spanHasScalarSource(b, e) || spanHasRingPop(b, e))
            return true;
        for (std::size_t j = b; j < e; ++j) {
            if (!isId(toks[j]))
                continue;
            if (j > b && isP(toks[j - 1], "::"))
                continue;
            if (st.tainted.count(toks[j].text) != 0)
                return true;
            // A load through a GPU window pointer is GPU data.
            if (st.gpuPtr.count(toks[j].text) != 0 && j + 1 < e &&
                isP(toks[j + 1], "["))
                return true;
        }
        return false;
    }

    /**
     * Like spanTainted, but identifiers that only appear as argument
     * of a call do not taint the expression's VALUE: a call's return
     * is the callee's output (`vma = find(addr)` yields a validated
     * mapping, not raw GPU data); the argument->sink axis is covered
     * separately by parameter summaries. Casts, moves, and the
     * min/max family are value-preserving and stay transparent (the
     * min/clamp sanitizer runs first and wins when a clean bound is
     * present).
     */
    bool
    spanValueTainted(const TaintState &st, std::size_t b,
                     std::size_t e) const
    {
        if (spanHasScalarSource(b, e) || spanHasRingPop(b, e))
            return true;
        static const std::set<std::string> transparent = {
            "static_cast", "reinterpret_cast", "const_cast",
            "dynamic_cast", "move", "forward", "min", "max", "clamp",
        };
        std::vector<std::pair<std::size_t, std::size_t>> excluded;
        forCallsIn(calls_, b, e, [&](const CallSite &cs) {
            if (transparent.count(cs.callee) != 0)
                return;
            for (const auto &sp : argSpans(*toks_, cs))
                excluded.push_back(sp);
        });
        const std::vector<Token> &toks = *toks_;
        for (std::size_t j = b; j < e; ++j) {
            if (!isId(toks[j]))
                continue;
            if (j > b && isP(toks[j - 1], "::"))
                continue;
            bool inCallArg = false;
            for (const auto &sp : excluded) {
                if (j >= sp.first && j < sp.second) {
                    inCallArg = true;
                    break;
                }
            }
            if (inCallArg)
                continue;
            if (st.tainted.count(toks[j].text) != 0)
                return true;
            if (st.gpuPtr.count(toks[j].text) != 0 && j + 1 < e &&
                isP(toks[j + 1], "["))
                return true;
        }
        return false;
    }

    int
    spanTaintLine(const TaintState &st, std::size_t b,
                  std::size_t e) const
    {
        const std::vector<Token> &toks = *toks_;
        for (std::size_t j = b; j < e; ++j) {
            if (!isId(toks[j]))
                continue;
            auto it = st.tainted.find(toks[j].text);
            if (it != st.tainted.end())
                return it->second;
        }
        return b < e ? toks[b].line : 0;
    }

    // --- transfer --------------------------------------------------
    void
    applyAssign(std::size_t b, std::size_t e, TaintState &st)
    {
        if (b >= e)
            return;
        const std::vector<Token> &toks = *toks_;
        const auto [eq, compound] = findAssign(toks, b, e);
        if (eq >= e)
            return;
        std::size_t lb = b;
        std::size_t le = compound ? eq - 1 : eq;
        const std::string lhs = lhsVar(toks, lb, le);
        if (lhs.empty())
            return;
        const std::size_t rb = eq + 1;
        // min/clamp against an untainted bound launders the value.
        bool sanitized = false;
        forCallsIn(calls_, rb, e, [&](const CallSite &cs) {
            if (cs.callee != "min" && cs.callee != "clamp")
                return;
            const auto spans = argSpans(toks, cs);
            for (const auto &sp : spans) {
                if (!spanTainted(st, sp.first, sp.second)) {
                    sanitized = true;
                    return;
                }
            }
        });
        // `x & 0xff` masks the range.
        {
            int depth = 0;
            for (std::size_t j = rb; j + 1 < e; ++j) {
                if (isP(toks[j], "(") || isP(toks[j], "[") ||
                    isP(toks[j], "{"))
                    ++depth;
                else if (isP(toks[j], ")") || isP(toks[j], "]") ||
                         isP(toks[j], "}"))
                    --depth;
                else if (depth == 0 && isP(toks[j], "&") &&
                         toks[j + 1].kind == TokKind::Number &&
                         j > rb && !isP(toks[j - 1], "&"))
                    sanitized = true;
            }
        }
        const bool rhsPtr =
            spanHasPtrSource(rb, e) ||
            [&] {
                const std::string r = spanRoot(toks, rb, e);
                return !r.empty() && st.gpuPtr.count(r) != 0 &&
                       !spanTainted(st, rb, e);
            }();
        if (rhsPtr) {
            st.gpuPtr.insert(lhs);
            st.tainted.erase(lhs);
            return;
        }
        if (!sanitized && spanValueTainted(st, rb, e)) {
            if (st.tainted.count(lhs) == 0)
                st.tainted[lhs] = spanTaintLine(st, rb, e);
            return;
        }
        if (!compound) {
            st.tainted.erase(lhs);
            st.bounded.erase(lhs);
            st.gpuPtr.erase(lhs);
        }
    }

    void
    applyFact(const CondFact &f, TaintState &st)
    {
        if (f.kind == CondFact::Kind::Falsy) {
            st.tainted.erase(f.subject); // asserted zero
            return;
        }
        if (f.kind != CondFact::Kind::Cmp)
            return;
        const bool upperBound = f.op == "<" || f.op == "<=";
        const bool rhsTainted =
            !f.rhsRoot.empty() && st.tainted.count(f.rhsRoot) != 0;
        if (st.tainted.count(f.subject) != 0) {
            // An asserted upper bound against an untainted, nonzero
            // limit sanitizes; `== anything` pins the value. Lower
            // bounds (`cnt >= 0`) prove nothing about size abuse.
            const bool boundClean =
                (f.rhsIsLiteral && !f.rhsIsZero) ||
                (!f.rhsRoot.empty() && !rhsTainted);
            if ((upperBound && boundClean) || f.op == "==")
                st.tainted.erase(f.subject);
            return;
        }
        // An untainted counter bounded above by a tainted value walks
        // as far as the GPU says: dangerous only against windows.
        if (upperBound && rhsTainted)
            st.bounded.insert(f.subject);
    }

    // --- sinks -----------------------------------------------------
    /**
     * Short-circuit-aware sink scan of a condition. The right side of
     * `a || b` only evaluates once `a` is false (and of `a && b` once
     * `a` is true), so each operand is scanned under the accumulated
     * edge facts of the operands to its left — the canonical
     * `fd < 0 || fd >= n || table_[fd] == nullptr` guard-and-use
     * shape is clean, not a finding. Fact application happens on a
     * scratch copy; the walker re-derives the taken edge's facts via
     * onBranch.
     */
    void
    scanCondition(std::size_t b, std::size_t e, TaintState &st)
    {
        const std::vector<Token> &toks = *toks_;
        TaintState scratch = st;
        int depth = 0;
        std::size_t segBegin = b;
        for (std::size_t j = b; j < e; ++j) {
            const Token &t = toks[j];
            if (isP(t, "(") || isP(t, "[") || isP(t, "{")) {
                ++depth;
                continue;
            }
            if (isP(t, ")") || isP(t, "]") || isP(t, "}")) {
                --depth;
                continue;
            }
            if (depth != 0 || j + 1 >= e)
                continue;
            const bool isOr = isP(t, "|") && isP(toks[j + 1], "|");
            // `&&` after a value token is logical; after `(`/`,`/an
            // operator it is an rvalue reference or address-of.
            const bool isAnd =
                isP(t, "&") && isP(toks[j + 1], "&") && j > b &&
                (isId(toks[j - 1]) || isP(toks[j - 1], ")") ||
                 isP(toks[j - 1], "]") ||
                 toks[j - 1].kind == TokKind::Number);
            if (!isOr && !isAnd)
                continue;
            scanSinks(segBegin, j, scratch);
            for (const CondFact &f :
                 parseCondFacts(toks, segBegin, j, isAnd))
                applyFact(f, scratch);
            segBegin = j + 2;
            ++j;
        }
        scanSinks(segBegin, e, scratch);
    }

    void
    scanSinks(std::size_t b, std::size_t e, TaintState &st)
    {
        if (b >= e || (summaryOut_ != nullptr && summaryFound_))
            return;
        const std::vector<Token> &toks = *toks_;
        forCallsIn(calls_, b, e, [&](const CallSite &cs) {
            if (cs.callee == "GENESYS_ASSERT") {
                // The asserted condition holds from here on.
                const auto spans = argSpans(toks, cs);
                if (!spans.empty()) {
                    const auto facts = parseCondFacts(
                        toks, spans[0].first, spans[0].second, true);
                    for (const CondFact &f : facts)
                        applyFact(f, st);
                }
                return;
            }
            checkCallSinks(cs, st);
        });
        scanSubscripts(b, e, st);
        scanAllocs(b, e, st);
    }

    void
    checkCallSinks(const CallSite &cs, TaintState &st)
    {
        const auto spans = argSpans(*toks_, cs);
        if ((cs.callee == "memcpy" || cs.callee == "memmove" ||
             cs.callee == "memset") &&
            spans.size() >= 3 &&
            spanTainted(st, spans[2].first, spans[2].second)) {
            report("gpu-taint-mem", cs.line,
                   "GPU-controlled size reaches " + cs.callee +
                       "() with no dominating bound",
                   st, spans[2]);
            return;
        }
        if ((cs.callee == "resize" || cs.callee == "reserve") &&
            !spans.empty() &&
            spanTainted(st, spans[0].first, spans[0].second)) {
            report("gpu-taint-alloc", cs.line,
                   "GPU-controlled size reaches " + cs.callee +
                       "() with no dominating bound",
                   st, spans[0]);
            return;
        }
        // Interprocedural: a tainted argument whose parameter reaches
        // a sink in the callee (bottom-up summaries).
        for (std::size_t p = 0; p < spans.size(); ++p) {
            if (!spanTainted(st, spans[p].first, spans[p].second))
                continue;
            for (int def : cg_.resolveDefs(cs)) {
                const ParamSinkSummary *sum =
                    paramSink(def, static_cast<int>(p));
                if (sum == nullptr)
                    continue;
                const int origin =
                    spanTaintLine(st, spans[p].first, spans[p].second);
                reportViaCall(cs, *sum, origin);
                return;
            }
        }
    }

    /// Is @p base used with a keyed-container API anywhere in the
    /// program (std::map/set vocabulary that std::vector lacks)? The
    /// lookup may sit in a sibling accessor, so the census is global.
    bool
    isAssociative(const std::string &base)
    {
        if (!keyedBasesBuilt_) {
            static const std::set<std::string> keyed = {
                "find", "contains", "count", "try_emplace",
            };
            for (const Function &fn : prog_.functions)
                for (const CallSite &c : fn.calls)
                    if (!c.receiver.empty() &&
                        keyed.count(c.callee) != 0)
                        keyedBases_.insert(c.receiver);
            keyedBasesBuilt_ = true;
        }
        return keyedBases_.count(base) != 0;
    }

    void
    scanSubscripts(std::size_t b, std::size_t e, TaintState &st)
    {
        const std::vector<Token> &toks = *toks_;
        for (std::size_t j = b; j + 1 < e; ++j) {
            if (!isId(toks[j]) || !isP(toks[j + 1], "["))
                continue;
            if (j > b && (isP(toks[j - 1], "::")))
                continue;
            // Matching ']' of this subscript.
            int depth = 0;
            std::size_t close = e;
            for (std::size_t k = j + 1; k < e; ++k) {
                if (isP(toks[k], "["))
                    ++depth;
                else if (isP(toks[k], "]") && --depth == 0) {
                    close = k;
                    break;
                }
            }
            if (close == e)
                continue;
            const std::string base = toks[j].text;
            // An index that is entirely a call's return value
            // (`buckets_[bucketOf(key)]`) is the callee's output, not
            // the caller's raw input — hash and mapping helpers bound
            // their own result.
            if (close > j + 4 && isId(toks[j + 2]) &&
                isP(toks[j + 3], "(")) {
                int d = 0;
                std::size_t m = j + 3;
                for (; m < close; ++m) {
                    if (isP(toks[m], "("))
                        ++d;
                    else if (isP(toks[m], ")") && --d == 0)
                        break;
                }
                if (m == close - 1)
                    continue;
            }
            const std::string idx =
                spanRoot(toks, j + 2, close);
            if (idx.empty())
                continue;
            // Keyed-container bases (`m.find(k)` / `m.contains(k)`
            // nearby) subscript by key, not position: operator[] on a
            // map cannot run off the end.
            if (isAssociative(base))
                continue;
            const bool idxTainted = st.tainted.count(idx) != 0;
            const bool idxBounded = st.bounded.count(idx) != 0;
            const bool baseWindow =
                st.gpuPtr.count(base) != 0 ||
                (summaryMode_ && paramNames_.count(base) != 0);
            if (idxTainted && st.tainted.count(base) == 0) {
                report("gpu-taint-index", toks[j].line,
                       "GPU-controlled index '" + idx +
                           "' subscripts '" + base +
                           "' with no dominating bound",
                       st, {j + 2, close});
            } else if (idxBounded && baseWindow) {
                report("gpu-taint-window", toks[j].line,
                       "walk of GPU window '" + base +
                           "' is bounded only by a GPU-controlled "
                           "count ('" +
                           idx + "')",
                       st, {j + 2, close});
            }
        }
    }

    void
    scanAllocs(std::size_t b, std::size_t e, TaintState &st)
    {
        const std::vector<Token> &toks = *toks_;
        // `std::vector<T> v(tainted)` / `std::string s(tainted, c)`.
        for (std::size_t j = b; j < e; ++j) {
            if (!isId(toks[j]) || (toks[j].text != "vector" &&
                                   toks[j].text != "string"))
                continue;
            bool flagged = false;
            forCallsIn(calls_, j + 1, e, [&](const CallSite &cs) {
                if (flagged)
                    return;
                const auto spans = argSpans(toks, cs);
                for (const auto &sp : spans) {
                    if (spanTainted(st, sp.first, sp.second)) {
                        report("gpu-taint-alloc", cs.line,
                               "GPU-controlled element count reaches "
                               "a container allocation with no "
                               "dominating bound",
                               st, sp);
                        flagged = true;
                        return;
                    }
                }
            });
            break;
        }
        // `new T[tainted]`.
        for (std::size_t j = b; j + 1 < e; ++j) {
            if (!isId(toks[j], "new"))
                continue;
            for (std::size_t k = j + 1; k < e && k < j + 12; ++k) {
                if (!isP(toks[k], "["))
                    continue;
                int depth = 0;
                std::size_t close = e;
                for (std::size_t m = k; m < e; ++m) {
                    if (isP(toks[m], "["))
                        ++depth;
                    else if (isP(toks[m], "]") && --depth == 0) {
                        close = m;
                        break;
                    }
                }
                if (close < e &&
                    spanTainted(st, k + 1, close)) {
                    report("gpu-taint-alloc", toks[j].line,
                           "GPU-controlled element count reaches "
                           "new[] with no dominating bound",
                           st, {k + 1, close});
                }
                break;
            }
        }
    }

    // --- reporting / summaries -------------------------------------
    void
    report(const std::string &rule, int line, const std::string &msg,
           const TaintState &st,
           std::pair<std::size_t, std::size_t> span)
    {
        if (summaryOut_ != nullptr) {
            if (summaryFound_)
                return;
            summaryFound_ = true;
            summaryOut_->rule = rule;
            summaryOut_->steps.push_back(
                fmtStep(path_, line, msg + " (in " + fn_->qualName +
                                         ")"));
            return;
        }
        const std::string key =
            path_ + ":" + std::to_string(line) + ":" + rule;
        if (!seen_.insert(key).second)
            return;
        Finding f;
        f.path = path_;
        f.line = line;
        f.rule = rule;
        f.message = msg;
        const int origin = spanTaintLine(st, span.first, span.second);
        if (origin != 0 && origin != line)
            f.witness.push_back(
                fmtStep(path_, origin, "value becomes GPU-controlled here"));
        f.witness.push_back(fmtStep(path_, line, "sink reached here"));
        findings_.push_back(std::move(f));
    }

    void
    reportViaCall(const CallSite &cs, const ParamSinkSummary &sum,
                  int originLine)
    {
        if (summaryOut_ != nullptr) {
            if (summaryFound_)
                return;
            summaryFound_ = true;
            summaryOut_->rule = sum.rule;
            summaryOut_->steps.push_back(fmtStep(
                path_, cs.line,
                "forwarded to " + cs.callee + "() (in " +
                    fn_->qualName + ")"));
            summaryOut_->steps.insert(summaryOut_->steps.end(),
                                      sum.steps.begin(),
                                      sum.steps.end());
            return;
        }
        const std::string key = path_ + ":" +
                                std::to_string(cs.line) + ":" +
                                sum.rule;
        if (!seen_.insert(key).second)
            return;
        Finding f;
        f.path = path_;
        f.line = cs.line;
        f.rule = sum.rule;
        f.message = "GPU-controlled argument of " + cs.callee +
                    "() reaches a sink in the callee with no "
                    "dominating bound";
        if (originLine != 0 && originLine != cs.line)
            f.witness.push_back(fmtStep(
                path_, originLine, "value becomes GPU-controlled here"));
        f.witness.push_back(
            fmtStep(path_, cs.line, "passed to " + cs.callee + "()"));
        f.witness.insert(f.witness.end(), sum.steps.begin(),
                         sum.steps.end());
        findings_.push_back(std::move(f));
    }

    /**
     * Does parameter @p paramIdx of functions[def] reach a sink when
     * treated as GPU-controlled? Memoized; pointer-typed peers are
     * treated as windows inside the summary walk (the caller vouches
     * for nothing). Returns nullptr when the parameter is laundered
     * through a dominating bound on every path.
     */
    const ParamSinkSummary *
    paramSink(int def, int paramIdx)
    {
        const auto key = std::make_pair(def, paramIdx);
        auto it = summaryMemo_.find(key);
        if (it != summaryMemo_.end())
            return it->second ? &*it->second : nullptr;
        const Function &fn =
            prog_.functions[static_cast<std::size_t>(def)];
        if (fn.bodyEnd <= fn.bodyBegin + 1 || paramIdx < 0 ||
            paramIdx >= static_cast<int>(fn.params.size()) ||
            fn.params[static_cast<std::size_t>(paramIdx)].empty() ||
            inProgress_.count(def) != 0) {
            summaryMemo_[key] = std::nullopt;
            return nullptr;
        }

        // Save entry-walk context, run the summary walk, restore.
        const int savedIdx = fnIdx_;
        const Function *savedFn = fn_;
        const std::vector<Token> *savedToks = toks_;
        std::string savedPath = path_;
        auto savedCalls = std::move(calls_);
        const bool savedMode = summaryMode_;
        ParamSinkSummary *savedOut = summaryOut_;
        const bool savedFound = summaryFound_;
        auto savedParams = std::move(paramNames_);

        inProgress_.insert(def);
        setupFunction(def);
        summaryMode_ = true;
        ParamSinkSummary sum;
        summaryOut_ = &sum;
        summaryFound_ = false;
        paramNames_.clear();
        TaintState init;
        for (std::size_t q = 0; q < fn.params.size(); ++q) {
            if (fn.params[q].empty())
                continue;
            if (static_cast<int>(q) == paramIdx)
                init.tainted[fn.params[q]] = fn.line;
            else
                paramNames_.insert(fn.params[q]);
        }
        const FlowTree tree = lowerFunction(prog_, def);
        PathWalker<TaintState, TaintPass> walker(tree, *this, 120);
        walker.run(std::move(init));
        const bool found = summaryFound_;
        inProgress_.erase(def);

        fnIdx_ = savedIdx;
        fn_ = savedFn;
        toks_ = savedToks;
        path_ = std::move(savedPath);
        calls_ = std::move(savedCalls);
        summaryMode_ = savedMode;
        summaryOut_ = savedOut;
        summaryFound_ = savedFound;
        paramNames_ = std::move(savedParams);

        if (found)
            summaryMemo_[key] = std::move(sum);
        else
            summaryMemo_[key] = std::nullopt;
        auto &slot = summaryMemo_[key];
        return slot ? &*slot : nullptr;
    }

    CallGraph &cg_;
    const Program &prog_;
    int fnIdx_ = -1;
    const Function *fn_ = nullptr;
    const std::vector<Token> *toks_ = nullptr;
    std::string path_;
    std::vector<const CallSite *> calls_;
    bool summaryMode_ = false;
    ParamSinkSummary *summaryOut_ = nullptr;
    bool summaryFound_ = false;
    std::set<std::string> paramNames_;
    bool keyedBasesBuilt_ = false;
    std::set<std::string> keyedBases_;
    std::set<int> inProgress_;
    std::map<std::pair<int, int>, std::optional<ParamSinkSummary>>
        summaryMemo_;
    std::vector<Finding> findings_;
    std::set<std::string> seen_;
};

} // namespace

std::vector<Finding>
runOwnershipPass(CallGraph &cg)
{
    OwnershipPass pass(cg);
    return pass.run();
}

std::vector<Finding>
runTaintPass(CallGraph &cg)
{
    TaintPass pass(cg);
    return pass.run();
}

} // namespace genesys::analysis
