/**
 * @file
 * gflow's path walker and branch-condition facts (DESIGN.md §16).
 *
 * PathWalker enumerates acyclic paths through a FlowTree by
 * depth-first continuation passing: at every If/Loop/Switch the state
 * forks, loops contribute a zero-iteration and a one-iteration path
 * (enough for acquire/release and taint lattices, which are
 * idempotent over repetition), and break/continue/return resolve
 * lexically through continuation records instead of CFG edges. The
 * walk is deterministic (source order, then-edge before else-edge)
 * and budgeted: past maxPaths only the first branch of each fork is
 * followed, so pathological functions degrade to a single-path scan
 * instead of exploding.
 *
 * The Client type supplies the transfer functions:
 *
 *   void onSimple(const FlowStmt &s, State &st);
 *   void onCondition(const FlowStmt &s, State &st);   // both edges
 *   void onBranch(const FlowStmt &s, bool sense, State &st);
 *   void onRangeFor(const FlowStmt &s, State &st);    // alias bind
 *   void onExit(const FlowStmt *s, ExitKind k, State &st,
 *               const std::vector<PathStep> &trace);
 *
 * onCondition sees the condition span once per fork — side effects
 * that happen regardless of the edge taken (a `tryPublish` spelled
 * inside an `if`) belong there. onBranch then asserts the edge.
 * onExit receives the branch-decision trace that led to this path
 * end; pass it through condFacts-driven state to build witnesses.
 */

#ifndef GENESYS_ANALYSIS_DATAFLOW_HH
#define GENESYS_ANALYSIS_DATAFLOW_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "analysis/cfg.hh"

namespace genesys::analysis
{

/** How a path ended. */
enum class ExitKind
{
    Fall,         ///< fell off the end of the function
    Return,       ///< return / co_return statement
    Throw,        ///< throw statement
    InfiniteLoop, ///< entered a condition-less loop with no break
};

/** One branch decision on the way to a path end. */
struct PathStep
{
    int line = 0;     ///< line of the condition
    bool sense = false; ///< edge taken: condition true or false
};

/**
 * A single asserted fact derived from a branch condition under a
 * known edge sense. `parseCondFacts` decomposes top-level `&&` (both
 * conjuncts hold on the true edge), `||` (both disjuncts fail on the
 * false edge), and `!`, then classifies each atom.
 */
struct CondFact
{
    enum class Kind
    {
        Truthy, ///< `x` asserted nonzero / engaged
        Falsy,  ///< `x` asserted zero / empty
        Cmp,    ///< `subject op rhs` asserted to hold
    };
    Kind kind = Kind::Truthy;
    /// The variable the fact is about (root identifier of the lhs).
    std::string subject;
    /// Truthy/Falsy only: when the atom was a member call
    /// `recv.callee(...)`, the receiver and callee ("slot",
    /// "beginProcessing"); empty for plain variables.
    std::string callReceiver;
    std::string callCallee;
    /// Root of the call's first argument ("slot" in `take(slot, t)`).
    std::string callArgRoot;
    /// Cmp only: the asserted operator after sense folding —
    /// `!(a < b)` on the true edge and `a < b` on the false edge both
    /// yield op ">=".
    std::string op;
    /// Cmp only: rhs shape, for bounds reasoning.
    bool rhsIsLiteral = false;
    bool rhsIsZero = false;
    std::string rhsRoot; ///< root identifier of the rhs ("" if none)
};

/**
 * Decompose the condition tokens [begin, end) under edge @p sense
 * into asserted facts. Returns an empty vector when the condition is
 * too rich to decompose (the client then learns nothing — sound for
 * both the ownership lattice and the taint lattice, which only act
 * on known facts).
 */
std::vector<CondFact> parseCondFacts(const std::vector<Token> &toks,
                                     std::size_t begin,
                                     std::size_t end, bool sense);

/**
 * Root identifier of an expression span: the first identifier that is
 * not a qualifier (`std::`), template head, or call head — the same
 * notion CallSite::argRoots uses. "" when none exists.
 */
std::string spanRoot(const std::vector<Token> &toks, std::size_t begin,
                     std::size_t end);

template <typename State, typename Client> class PathWalker
{
  public:
    PathWalker(const FlowTree &tree, Client &client,
               std::size_t maxPaths = 512)
        : tree_(tree), client_(client), maxPaths_(maxPaths)
    {
    }

    void
    run(State initial)
    {
        Cont atEnd = [this](State st) {
            client_.onExit(nullptr, ExitKind::Fall, st, trace_);
            ++paths_;
        };
        walkSeq(tree_.body, 0, std::move(initial), atEnd, nullptr);
    }

    /// Paths enumerated so far (diagnostic).
    std::size_t pathCount() const { return paths_; }

  private:
    using Cont = std::function<void(State)>;

    /// Lexical loop/switch context for break/continue resolution.
    struct FlowCtx
    {
        const Cont *onBreak = nullptr;
        const Cont *onContinue = nullptr;
    };

    bool
    forkAllowed() const
    {
        return paths_ < maxPaths_;
    }

    void
    walkSeq(const std::vector<FlowStmt> &stmts, std::size_t idx,
            State st, const Cont &after, const FlowCtx *ctx)
    {
        if (idx == stmts.size()) {
            after(std::move(st));
            return;
        }
        const FlowStmt &s = stmts[idx];
        Cont rest = [this, &stmts, idx, &after, ctx](State st2) {
            walkSeq(stmts, idx + 1, std::move(st2), after, ctx);
        };

        switch (s.kind) {
        case StmtKind::Simple:
            client_.onSimple(s, st);
            rest(std::move(st));
            return;
        case StmtKind::Return:
            client_.onExit(&s, ExitKind::Return, st, trace_);
            ++paths_;
            return;
        case StmtKind::Throw:
            client_.onExit(&s, ExitKind::Throw, st, trace_);
            ++paths_;
            return;
        case StmtKind::Break:
            if (ctx != nullptr && ctx->onBreak != nullptr)
                (*ctx->onBreak)(std::move(st));
            else
                rest(std::move(st)); // malformed; keep walking
            return;
        case StmtKind::Continue:
            if (ctx != nullptr && ctx->onContinue != nullptr)
                (*ctx->onContinue)(std::move(st));
            else
                rest(std::move(st));
            return;
        case StmtKind::If:
            walkIf(s, std::move(st), rest, ctx);
            return;
        case StmtKind::Loop:
            walkLoop(s, std::move(st), rest, ctx);
            return;
        case StmtKind::RangeFor:
            walkRangeFor(s, std::move(st), rest, ctx);
            return;
        case StmtKind::Switch:
            walkSwitch(s, std::move(st), rest, ctx);
            return;
        case StmtKind::Try:
            walkTry(s, std::move(st), rest, ctx);
            return;
        }
    }

    void
    walkIf(const FlowStmt &s, State st, const Cont &rest,
           const FlowCtx *ctx)
    {
        client_.onCondition(s, st);
        {
            State thenSt = st;
            client_.onBranch(s, true, thenSt);
            trace_.push_back({s.line, true});
            walkSeq(s.thenBody, 0, std::move(thenSt), rest, ctx);
            trace_.pop_back();
        }
        if (!forkAllowed())
            return;
        State elseSt = std::move(st);
        client_.onBranch(s, false, elseSt);
        trace_.push_back({s.line, false});
        walkSeq(s.elseBody, 0, std::move(elseSt), rest, ctx);
        trace_.pop_back();
    }

    void
    walkLoop(const FlowStmt &s, State st, const Cont &rest,
             const FlowCtx *ctx)
    {
        (void)ctx; // body break/continue bind to this loop
        const bool infinite = s.condBegin >= s.condEnd;
        if (s.condBegin < s.condEnd)
            client_.onCondition(s, st);

        // Zero-iteration path (not for do-while / infinite loops).
        if (!infinite && !s.bodyFirst) {
            State zero = st;
            client_.onBranch(s, false, zero);
            trace_.push_back({s.line, false});
            rest(std::move(zero));
            trace_.pop_back();
            if (!forkAllowed())
                return;
        }

        // One-iteration path. After the body completes (fall off or
        // `continue`), a finite loop re-tests and exits on the false
        // edge; an infinite loop never exits except by break.
        Cont endIter = [this, &s, &rest, infinite](State st2) {
            if (infinite) {
                client_.onExit(&s, ExitKind::InfiniteLoop, st2,
                               trace_);
                ++paths_;
                return;
            }
            client_.onBranch(s, false, st2);
            rest(std::move(st2));
        };
        FlowCtx loopCtx;
        loopCtx.onBreak = &rest;
        loopCtx.onContinue = &endIter;
        State once = std::move(st);
        if (!infinite)
            client_.onBranch(s, true, once);
        trace_.push_back({s.line, true});
        walkSeq(s.thenBody, 0, std::move(once), endIter, &loopCtx);
        trace_.pop_back();
    }

    void
    walkRangeFor(const FlowStmt &s, State st, const Cont &rest,
                 const FlowCtx *ctx)
    {
        (void)ctx;
        // Empty-range path.
        {
            State zero = st;
            trace_.push_back({s.line, false});
            rest(std::move(zero));
            trace_.pop_back();
            if (!forkAllowed())
                return;
        }
        FlowCtx loopCtx;
        loopCtx.onBreak = &rest;
        loopCtx.onContinue = &rest;
        State once = std::move(st);
        client_.onRangeFor(s, once);
        trace_.push_back({s.line, true});
        walkSeq(s.thenBody, 0, std::move(once), rest, &loopCtx);
        trace_.pop_back();
    }

    void
    walkSwitch(const FlowStmt &s, State st, const Cont &rest,
               const FlowCtx *ctx)
    {
        client_.onCondition(s, st);
        // `continue` inside a switch belongs to the enclosing loop;
        // `break` exits the switch.
        FlowCtx swCtx;
        swCtx.onBreak = &rest;
        swCtx.onContinue =
            ctx != nullptr ? ctx->onContinue : nullptr;
        bool first = true;
        for (const auto &alt : s.alternatives) {
            if (!first && !forkAllowed())
                return;
            first = false;
            State altSt = st;
            trace_.push_back({s.line, true});
            walkSeq(alt, 0, std::move(altSt), rest, &swCtx);
            trace_.pop_back();
        }
        if (!s.hasDefault && (first || forkAllowed())) {
            trace_.push_back({s.line, false});
            rest(std::move(st));
            trace_.pop_back();
        }
    }

    void
    walkTry(const FlowStmt &s, State st, const Cont &rest,
            const FlowCtx *ctx)
    {
        // "A entirely or B entirely": the try block as one path, each
        // handler as another starting from the pre-try state.
        {
            State trySt = st;
            walkSeq(s.thenBody, 0, std::move(trySt), rest, ctx);
        }
        for (const auto &handler : s.alternatives) {
            if (!forkAllowed())
                return;
            State hSt = st;
            trace_.push_back({s.line, false});
            walkSeq(handler, 0, std::move(hSt), rest, ctx);
            trace_.pop_back();
        }
    }

    const FlowTree &tree_;
    Client &client_;
    std::size_t maxPaths_;
    std::size_t paths_ = 0;
    std::vector<PathStep> trace_;
};

} // namespace genesys::analysis

#endif // GENESYS_ANALYSIS_DATAFLOW_HH
