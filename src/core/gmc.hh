/**
 * @file
 * gmc: the GENESYS slot-protocol binding of the schedule-space model
 * checker (DESIGN.md §11).
 *
 * A checked configuration (McConfig) picks a point in the paper's
 * design-space matrix — granularity × ordering × blocking × wait
 * mechanism × areaShards × workqueue workers × concurrent work-groups
 * — and scenario() builds a *timing-collapsed* System for it: every
 * modeled latency is zeroed except the polling cadence (kept at one
 * tick so waiting always advances time and clean runs terminate under
 * every schedule). With latencies collapsed, the logically-concurrent
 * protocol steps (publish, doorbell, service, complete, sweep, halt,
 * wake) land on the same tick, so the EventQueue tie-break schedule
 * *is* the concurrency schedule and sim::gmc::explore() can enumerate
 * the commutation space.
 *
 * Each explored schedule runs a fixed workload (per-group open +
 * pwrite to disjoint offsets) and applies the invariant oracles:
 *  - slot-FSM legality & internal assertions (PanicError ⇒ "panic")
 *  - progress: queue drained with no suspended tasks, within the
 *    event/horizon budget (⇒ "stuck": lost wakeup, deadlock, livelock)
 *  - gsan-clean: zero happens-before sanitizer reports (⇒ "gsan")
 *  - per-shard quiescence: every slot Free at end (⇒ "quiescence")
 *  - result equivalence: the digest of results + payload bytes +
 *    counters must match the FIFO reference (⇒ "divergence",
 *    applied by the explorer)
 */

#ifndef GENESYS_CORE_GMC_HH
#define GENESYS_CORE_GMC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/client.hh"
#include "core/system.hh"
#include "sim/explore.hh"
#include "support/mutant.hh"

namespace genesys::core::gmc
{

/** One checked point of the design-space matrix. */
struct McConfig
{
    Granularity granularity = Granularity::WorkGroup;
    Ordering ordering = Ordering::Strong;
    Blocking blocking = Blocking::Blocking;
    WaitMode wait = WaitMode::Polling;
    std::uint32_t areaShards = 1;
    std::uint32_t workers = 1;
    /// Concurrent work-groups (one wavefront each); they write
    /// disjoint file offsets, so results are schedule-invariant.
    std::uint32_t groups = 1;
    /// Ring submission mode (DESIGN.md §13): submissions ride the
    /// per-shard SQ, completions the CQ, instead of per-slot doorbells.
    bool useRings = false;
    /// SQ/CQ capacity when rings are on. Capacity 1 keeps the
    /// claim-full / publish-order contention paths reachable under
    /// exhaustive exploration while the clean protocol stays live.
    std::uint32_t ringEntries = 1;
    /// Seeded mutants, planted by a mutant::Scope around each schedule
    /// (empty = the shipped protocol). Mutant::LostEdge only shows in
    /// scenarios with edge-triggered interests (etNetScenario):
    /// level-triggered waiters re-probe and never notice.
    mutant::Set mutants;

    /** Stable identifier, e.g. "wg-strong-block-poll-1x1g1"
     *  ("-ring<E>" appended in ring mode, "-etlost" with
     *  Mutant::LostEdge). */
    std::string name() const;
};

/**
 * The clean small-config matrix CI smoke-checks: every legal
 * granularity/ordering/blocking/wait combination at 1 shard × 1
 * worker × 1 group (exhaustively explorable), plus multi-shard /
 * multi-worker / multi-group points for bounded+POR exploration.
 */
std::vector<McConfig> smallMatrix();

/** Look @p name up in @p configs; nullptr when absent. */
const McConfig *configByName(const std::vector<McConfig> &configs,
                             const std::string &name);

/** The timing-collapsed SystemConfig scenario() runs under. */
SystemConfig collapsedConfig(const McConfig &mc);

/**
 * The re-executable scenario for explore()/replay(): builds a fresh
 * collapsed System, installs the driver, runs the workload under
 * budget, applies the oracles, and digests the final state.
 */
sim::gmc::RunFn scenario(const McConfig &mc);

/** explore() over this config's scenario. */
sim::gmc::ExploreResult exploreConfig(const McConfig &mc,
                                      const sim::gmc::ExploreOptions &opts);

/** Re-execute one schedule of this config (--gmc-replay). */
sim::gmc::RunOutcome replayConfig(const McConfig &mc,
                                  const sim::gmc::Schedule &schedule);

/**
 * Timing-collapsed gnet scenario: a host TCP client against a GPU
 * epoll echo server (epoll_create/ctl/wait, accept, read, write all
 * through syscall slots). The checked config's ordering and wait mode
 * shape the server's invocations; the oracles are the same as
 * scenario()'s, so lost epoll wakeups and wake/halt races surface as
 * "stuck" and gsan violations.
 */
sim::gmc::RunFn netScenario(const McConfig &mc);

/** explore() over this config's netScenario. */
sim::gmc::ExploreResult
exploreNetConfig(const McConfig &mc,
                 const sim::gmc::ExploreOptions &opts);

/** Re-execute one schedule of this config's netScenario. */
sim::gmc::RunOutcome replayNetConfig(const McConfig &mc,
                                     const sim::gmc::Schedule &schedule);

/**
 * Edge-triggered gnet scenario: like netScenario, but the accepted
 * connection is registered EPOLLIN|EPOLLET and the server drains it
 * to -EAGAIN with recvmsg(MSG_DONTWAIT) — the serving-path idiom gkv
 * uses. The client pings twice with an echo read in between, so the
 * level drops to zero between pings and the server must see two
 * distinct readiness edges (plus a third for the client's FIN). With
 * Mutant::LostEdge the EpollSystem drops the first recorded edge on the
 * floor; under the strict-ET contract no later send can re-derive it
 * (data arriving on a non-empty chain is not a transition), so the
 * server sleeps in epoll_wait forever and every schedule — including
 * FIFO — reports "stuck" with a replayable counterexample.
 */
sim::gmc::RunFn etNetScenario(const McConfig &mc);

/** explore() over this config's etNetScenario. */
sim::gmc::ExploreResult
exploreEtNetConfig(const McConfig &mc,
                   const sim::gmc::ExploreOptions &opts);

/** Re-execute one schedule of this config's etNetScenario. */
sim::gmc::RunOutcome
replayEtNetConfig(const McConfig &mc,
                  const sim::gmc::Schedule &schedule);

/**
 * Ring-protocol scenario (DESIGN.md §13): scenario() with the SQ/CQ
 * submission path forced on. The same workload and oracles apply —
 * ring bugs manifest as "stuck" (a stranded batch or a waiter whose
 * CQ signal fired before its slot completed never drains) or as gsan
 * happens-before reports on the ring channel — plus an SQ-emptiness
 * check in the quiescence oracle.
 */
sim::gmc::RunFn ringScenario(const McConfig &mc);

/** explore() over this config's ringScenario. */
sim::gmc::ExploreResult
exploreRingConfig(const McConfig &mc,
                  const sim::gmc::ExploreOptions &opts);

/** Re-execute one schedule of this config's ringScenario. */
sim::gmc::RunOutcome
replayRingConfig(const McConfig &mc,
                 const sim::gmc::Schedule &schedule);

} // namespace genesys::core::gmc

#endif // GENESYS_CORE_GMC_HH
