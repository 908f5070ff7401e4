/**
 * @file
 * gstat's structural analysis passes (DESIGN.md §14). The two gflow
 * dataflow passes (ownership, GPU taint — DESIGN.md §16) are declared
 * in flowpasses.hh and selected through the same PassSet.
 *
 * 1. May-park (`nonblocking-handler-parks`, `drain-loop-park`,
 *    `park-under-lock`): transitive reachability to parking primitives
 *    over synchronous call edges. The syscall blocking classification
 *    is recovered from the tree itself — the `install(sysno::X, "x",
 *    sysX)` rows of the syscall table bind numbers to handlers, and
 *    the `sysno::` references inside `mayBlockIndefinitely` form the
 *    set the runtime treats as may-block. A handler outside that set
 *    that can reach an indefinite park is a classification bug: the
 *    ring consumer would service it inline and wedge a shared OS core.
 *    The same reachability must not hold from the ring consumer's
 *    drain loop (`ringConsumeTask`), and no park of any kind may
 *    happen while a lock is held.
 *
 * 2. Lock order (`lock-order-cycle`): acquisition-order edges from
 *    held-set snapshots at acquisition sites and at call sites
 *    (through callee lock summaries), cycle detection over the edge
 *    graph, and a witness path per edge. std::scoped_lock groups are
 *    acquired atomically and produce no intra-group edges.
 *
 * 3. Ordering discipline (`unpaired-release`,
 *    `unpaired-hb-annotation`, `unannotated-consume`): flow-sensitive per-body pairing of ring
 *    counter accesses. A release store must be ordered after an
 *    acquire load in the same body (the load may appear inside the
 *    store's own argument list, as in
 *    `storeHeadRelease(loadHeadAcquire() + 1)`); a gsan ring
 *    annotation must sit next to the counter operation it models;
 *    an `entries_[...]` read needs a `ringConsume()` acquire in the
 *    same body.
 *
 * 4. Token rules (tokenrules.cc), selected with `ordering`: banned
 *    identifiers outside file allowlists (`doorbell-callers`,
 *    `segment-loan`, `raw-rand`, `wall-clock`, `raw-counter-access`,
 *    `mutant-scope`, `sysfs-table`),
 *    `slot-state`, `unordered-iteration`, `coawait-owning-lambda`
 *    and the cross-file `sysno-classified` census check.
 */

#ifndef GENESYS_ANALYSIS_PASSES_HH
#define GENESYS_ANALYSIS_PASSES_HH

#include <vector>

#include "analysis/callgraph.hh"
#include "analysis/model.hh"

namespace genesys::analysis
{

std::vector<Finding> runMayParkPass(CallGraph &cg);
std::vector<Finding> runLockOrderPass(CallGraph &cg);
std::vector<Finding> runOrderingPass(const Program &prog);
std::vector<Finding> runTokenRules(const Program &prog);

/** Pass selection for runPasses. Defaults to everything. The gflow
 *  passes (DESIGN.md §16) live in flowpasses.cc. */
struct PassSet
{
    bool mayPark = true;
    bool lockOrder = true;
    bool ordering = true;
    bool ownership = true;
    bool taint = true;
};

/** Run the selected passes, sorted for stable output. */
std::vector<Finding> runPasses(const Program &prog, const PassSet &ps);

} // namespace genesys::analysis

#endif // GENESYS_ANALYSIS_PASSES_HH
