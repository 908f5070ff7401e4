/**
 * @file
 * gflow's dataflow passes (DESIGN.md §16).
 *
 * Two pass families over the PathWalker:
 *
 *  - runOwnershipPass: resource-lifecycle / must-release checking.
 *    Acquire sites (fd allocation, ring claim, slot beginProcessing
 *    or a bool wrapper returning it, zero-copy segment loans, epoll
 *    interest registration) must reach
 *    a matching release on every path that ends the function; a path
 *    that returns, throws, or falls off the end with a live resource
 *    is reported with the acquire site and the branch decisions that
 *    led there as witness.
 *
 *  - runTaintPass: GPU-argument taint. Slot/ring payload reads
 *    (`args.a[i]`, `args.as<T>(i)`, SQ ring entries, loads through
 *    `args.ptr<T>(i)` windows) are untrusted; flows into memory-op
 *    sizes, allocation sizes, container indexing, or GPU-window walks
 *    with no dominating bounds guard are reported, including through
 *    calls via bottom-up parameter summaries.
 */

#ifndef GENESYS_ANALYSIS_FLOWPASSES_HH
#define GENESYS_ANALYSIS_FLOWPASSES_HH

#include <vector>

#include "analysis/callgraph.hh"
#include "analysis/model.hh"

namespace genesys::analysis
{

/** Must-release resource-lifecycle pass. */
std::vector<Finding> runOwnershipPass(CallGraph &cg);

/** GPU-argument taint pass. */
std::vector<Finding> runTaintPass(CallGraph &cg);

} // namespace genesys::analysis

#endif // GENESYS_ANALYSIS_FLOWPASSES_HH
