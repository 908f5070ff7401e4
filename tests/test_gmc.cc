/**
 * @file
 * gmc schedule-space model checker tests: schedule string round-trips,
 * exhaustive clean verification of the 1-shard × 1-worker configs,
 * seeded protocol mutants (each found with a replayable
 * counterexample), and replay determinism.
 */

#include <gtest/gtest.h>

#include "core/gmc.hh"
#include "sim/explore.hh"

namespace
{

using namespace genesys;
using core::Blocking;
using core::Granularity;
using core::Ordering;
using core::WaitMode;
using core::gmc::McConfig;
using sim::gmc::ExploreOptions;
using sim::gmc::ExploreResult;
using sim::gmc::RunOutcome;
using sim::gmc::Schedule;

McConfig
baseConfig(Granularity g, WaitMode wait)
{
    McConfig mc;
    mc.granularity = g;
    mc.ordering = Ordering::Strong;
    mc.blocking = Blocking::Blocking;
    mc.wait = wait;
    mc.areaShards = 1;
    mc.workers = 1;
    mc.groups = 1;
    return mc;
}

// ------------------------------------------------- schedule strings

TEST(GmcSchedule, RenderAndParseRoundTrip)
{
    EXPECT_EQ(sim::gmc::renderSchedule({}), "fifo");
    EXPECT_EQ(sim::gmc::renderSchedule({2, 0, 1}), "2.0.1");

    Schedule s;
    EXPECT_TRUE(sim::gmc::parseSchedule("fifo", s));
    EXPECT_TRUE(s.empty());
    EXPECT_TRUE(sim::gmc::parseSchedule("", s));
    EXPECT_TRUE(s.empty());
    EXPECT_TRUE(sim::gmc::parseSchedule("2.0.1", s));
    EXPECT_EQ(s, (Schedule{2, 0, 1}));
    // Trailing zeros are implied FIFO choices: canonicalized away.
    EXPECT_TRUE(sim::gmc::parseSchedule("1.0.0", s));
    EXPECT_EQ(s, (Schedule{1}));

    EXPECT_FALSE(sim::gmc::parseSchedule("1..2", s));
    EXPECT_FALSE(sim::gmc::parseSchedule(".1", s));
    EXPECT_FALSE(sim::gmc::parseSchedule("1.", s));
    EXPECT_FALSE(sim::gmc::parseSchedule("1.x", s));
    EXPECT_FALSE(sim::gmc::parseSchedule("99999999999", s));
}

TEST(GmcSchedule, ConfigNamesAreUniqueAndLookupWorks)
{
    const auto matrix = core::gmc::smallMatrix();
    ASSERT_FALSE(matrix.empty());
    for (std::size_t i = 0; i < matrix.size(); ++i) {
        for (std::size_t j = i + 1; j < matrix.size(); ++j)
            EXPECT_NE(matrix[i].name(), matrix[j].name());
    }
    const McConfig *mc =
        core::gmc::configByName(matrix, matrix.front().name());
    ASSERT_NE(mc, nullptr);
    EXPECT_EQ(mc->name(), matrix.front().name());
    EXPECT_EQ(core::gmc::configByName(matrix, "no-such-config"),
              nullptr);
}

// ------------------------------------------------ clean exploration

TEST(GmcClean, FifoRunIsDeterministic)
{
    const McConfig mc =
        baseConfig(Granularity::WorkGroup, WaitMode::Polling);
    const RunOutcome a = core::gmc::replayConfig(mc, {});
    const RunOutcome b = core::gmc::replayConfig(mc, {});
    EXPECT_FALSE(a.violation) << a.kind << ": " << a.detail;
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.endTick, b.endTick);
    EXPECT_EQ(a.events, b.events);
}

TEST(GmcClean, WorkItemOneShardExhaustive)
{
    const McConfig mc =
        baseConfig(Granularity::WorkItem, WaitMode::Polling);
    const ExploreResult r = core::gmc::exploreConfig(mc, {});
    EXPECT_TRUE(r.stats.exhaustive);
    EXPECT_GT(r.stats.schedulesRun, 1u);
    for (const auto &v : r.violations) {
        ADD_FAILURE() << mc.name() << " schedule "
                      << sim::gmc::renderSchedule(v.schedule) << ": "
                      << v.outcome.kind << " — " << v.outcome.detail;
    }
}

TEST(GmcClean, WorkGroupOneShardExhaustive)
{
    const McConfig mc =
        baseConfig(Granularity::WorkGroup, WaitMode::Polling);
    const ExploreResult r = core::gmc::exploreConfig(mc, {});
    EXPECT_TRUE(r.stats.exhaustive);
    EXPECT_GT(r.stats.schedulesRun, 1u);
    for (const auto &v : r.violations) {
        ADD_FAILURE() << mc.name() << " schedule "
                      << sim::gmc::renderSchedule(v.schedule) << ": "
                      << v.outcome.kind << " — " << v.outcome.detail;
    }
}

TEST(GmcClean, WorkGroupHaltResumeExhaustive)
{
    const McConfig mc =
        baseConfig(Granularity::WorkGroup, WaitMode::HaltResume);
    const ExploreResult r = core::gmc::exploreConfig(mc, {});
    EXPECT_TRUE(r.stats.exhaustive);
    for (const auto &v : r.violations) {
        ADD_FAILURE() << mc.name() << " schedule "
                      << sim::gmc::renderSchedule(v.schedule) << ": "
                      << v.outcome.kind << " — " << v.outcome.detail;
    }
}

TEST(GmcClean, BoundedExplorationReportsNonExhaustive)
{
    const McConfig mc =
        baseConfig(Granularity::WorkGroup, WaitMode::Polling);
    ExploreOptions opts;
    opts.maxSchedules = 2;
    const ExploreResult r = core::gmc::exploreConfig(mc, opts);
    EXPECT_LE(r.stats.schedulesRun, 2u);
    EXPECT_FALSE(r.stats.exhaustive);
}

// ------------------------------------------------- seeded mutants

/** Explore @p mc expecting at least one violation of kind @p kind,
 *  then re-execute the counterexample schedule twice and require the
 *  identical outcome (replayability + determinism). */
void
expectMutantCaught(McConfig mc, const char *kind)
{
    ExploreOptions opts;
    opts.maxCounterexamples = 1;
    const ExploreResult r = core::gmc::exploreConfig(mc, opts);
    ASSERT_FALSE(r.violations.empty())
        << mc.name() << ": mutant not found";
    const auto &cx = r.violations.front();
    EXPECT_EQ(cx.outcome.kind, kind)
        << "schedule " << sim::gmc::renderSchedule(cx.schedule) << ": "
        << cx.outcome.detail;

    const RunOutcome once = core::gmc::replayConfig(mc, cx.schedule);
    const RunOutcome twice = core::gmc::replayConfig(mc, cx.schedule);
    EXPECT_TRUE(once.violation);
    EXPECT_EQ(once.kind, cx.outcome.kind);
    EXPECT_EQ(once.kind, twice.kind);
    EXPECT_EQ(once.detail, twice.detail);
    EXPECT_EQ(once.endTick, twice.endTick);
    EXPECT_EQ(once.events, twice.events);
}

TEST(GmcMutant, DoorbellBeforePublishStrandsRequest)
{
    // FIFO hides this bug: the publish's zero-latency continuation
    // drains before the doorbell's multi-hop delivery. gmc must find
    // an adversarial order that services the still-Populating slot.
    McConfig mc = baseConfig(Granularity::WorkGroup, WaitMode::Polling);
    mc.mutants = {Mutant::DoorbellBeforePublish};

    // First confirm FIFO really is blind to it — the whole reason a
    // model checker is needed.
    {
            const RunOutcome fifo = core::gmc::replayConfig(mc, {});
        EXPECT_FALSE(fifo.violation)
            << "FIFO already catches it: " << fifo.kind;
    }
    expectMutantCaught(mc, "stuck");
}

TEST(GmcMutant, WakeBeforeCompleteLosesWakeup)
{
    McConfig mc =
        baseConfig(Granularity::WorkGroup, WaitMode::HaltResume);
    mc.mutants = {Mutant::WakeBeforeComplete};
    expectMutantCaught(mc, "stuck");
}

TEST(GmcMutant, SkipPostBarrierTripsGsan)
{
    McConfig mc = baseConfig(Granularity::WorkGroup, WaitMode::Polling);
    mc.mutants = {Mutant::SkipPostBarrier};
    expectMutantCaught(mc, "gsan");
}

TEST(GmcPor, FootprintPorIsHeuristicNotSound)
{
    // The doorbell-before-publish mutant needs several dependent
    // same-tick flips; the footprint heuristic only sees the executed
    // window of each run and prunes the path to it. This test pins the
    // unsoundness that keeps ExploreOptions::por off by default — if
    // POR ever *does* find the mutant, the heuristic got stronger and
    // the documentation (DESIGN.md §11, explore.hh) must be revisited.
    McConfig mc = baseConfig(Granularity::WorkGroup, WaitMode::Polling);
    mc.mutants = {Mutant::DoorbellBeforePublish};

    ExploreOptions exhaustive;
    const ExploreResult full = core::gmc::exploreConfig(mc, exhaustive);
    ASSERT_FALSE(full.violations.empty());

    ExploreOptions heuristic;
    heuristic.por = true;
    const ExploreResult pruned =
        core::gmc::exploreConfig(mc, heuristic);
    EXPECT_GT(pruned.stats.branchesPruned, 0u);
    EXPECT_LT(pruned.stats.schedulesRun, full.stats.schedulesRun);
    EXPECT_TRUE(pruned.violations.empty())
        << "POR now finds the doorbell mutant (schedule "
        << sim::gmc::renderSchedule(
               pruned.violations.front().schedule)
        << "); update the soundness caveats before relying on it";
}

TEST(GmcReplay, OutOfRangeChoiceReportsPanic)
{
    const McConfig mc =
        baseConfig(Granularity::WorkGroup, WaitMode::Polling);
    // No tie point in this scenario has 1000 candidates.
    const RunOutcome out = core::gmc::replayConfig(mc, {999});
    EXPECT_TRUE(out.violation);
    EXPECT_EQ(out.kind, "panic");
}

// ------------------------------------------- gnet echo exploration

TEST(GmcNet, FifoRunIsCleanAndDeterministic)
{
    const McConfig mc =
        baseConfig(Granularity::WorkGroup, WaitMode::Polling);
    const RunOutcome a = core::gmc::replayNetConfig(mc, {});
    const RunOutcome b = core::gmc::replayNetConfig(mc, {});
    EXPECT_FALSE(a.violation) << a.kind << ": " << a.detail;
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.endTick, b.endTick);
    EXPECT_EQ(a.events, b.events);
}

TEST(GmcNet, PollingBoundedExplorationIsClean)
{
    const McConfig mc =
        baseConfig(Granularity::WorkGroup, WaitMode::Polling);
    // The net scenario's schedule space is far larger than the pwrite
    // scenario's (wire deliveries and readiness callbacks add tie
    // points), so CI explores a bounded prefix rather than the full
    // space. Every explored schedule must still pass all oracles.
    ExploreOptions opts;
    opts.maxSchedules = 24;
    opts.maxDepth = 12;
    const ExploreResult r = core::gmc::exploreNetConfig(mc, opts);
    EXPECT_GT(r.stats.schedulesRun, 1u);
    for (const auto &v : r.violations) {
        ADD_FAILURE() << mc.name() << " net schedule "
                      << sim::gmc::renderSchedule(v.schedule) << ": "
                      << v.outcome.kind << " — " << v.outcome.detail;
    }
}

TEST(GmcNet, HaltResumeBoundedExplorationIsClean)
{
    // Halt/resume is where a lost epoll wake-up would strand the
    // server wave: a "stuck" or gsan violation on any schedule here
    // is a real wake/halt race in the readiness path.
    const McConfig mc =
        baseConfig(Granularity::WorkGroup, WaitMode::HaltResume);
    ExploreOptions opts;
    opts.maxSchedules = 24;
    opts.maxDepth = 12;
    const ExploreResult r = core::gmc::exploreNetConfig(mc, opts);
    EXPECT_GT(r.stats.schedulesRun, 1u);
    for (const auto &v : r.violations) {
        ADD_FAILURE() << mc.name() << " net schedule "
                      << sim::gmc::renderSchedule(v.schedule) << ": "
                      << v.outcome.kind << " — " << v.outcome.detail;
    }
}

// --------------------------------- edge-triggered gnet exploration

TEST(GmcEtNet, NameCarriesLostEdgeSuffix)
{
    McConfig mc = baseConfig(Granularity::WorkGroup, WaitMode::Polling);
    const std::string plain = mc.name();
    mc.mutants = {Mutant::LostEdge};
    EXPECT_EQ(mc.name(), plain + "-etlost");
}

TEST(GmcEtNet, FifoRunIsCleanAndDeterministic)
{
    const McConfig mc =
        baseConfig(Granularity::WorkGroup, WaitMode::Polling);
    const RunOutcome a = core::gmc::replayEtNetConfig(mc, {});
    const RunOutcome b = core::gmc::replayEtNetConfig(mc, {});
    EXPECT_FALSE(a.violation) << a.kind << ": " << a.detail;
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.endTick, b.endTick);
    EXPECT_EQ(a.events, b.events);
}

TEST(GmcEtNet, PollingBoundedExplorationIsClean)
{
    // Like the LT net scenario, the schedule space is too large for
    // exhaustive CI exploration; every explored schedule must still
    // pass all oracles — in particular, no reordering of wire
    // deliveries against the drain loop may lose a readiness edge.
    const McConfig mc =
        baseConfig(Granularity::WorkGroup, WaitMode::Polling);
    ExploreOptions opts;
    opts.maxSchedules = 24;
    opts.maxDepth = 12;
    const ExploreResult r = core::gmc::exploreEtNetConfig(mc, opts);
    EXPECT_GT(r.stats.schedulesRun, 1u);
    for (const auto &v : r.violations) {
        ADD_FAILURE() << mc.name() << " ET net schedule "
                      << sim::gmc::renderSchedule(v.schedule) << ": "
                      << v.outcome.kind << " — " << v.outcome.detail;
    }
}

TEST(GmcEtNet, LostEdgeMutantStrandsServer)
{
    // The seeded mutant observes the connection's first readable
    // transition but never latches it as pending. Under strict ET no
    // later send can re-derive the edge (data arriving on a non-empty
    // chain is not a transition), so the server sleeps in epoll_wait
    // and the client blocks on its echo. Unlike the slot-protocol
    // mutants this drop is not a reordering — it fires on every
    // schedule — so the value here is the oracle coverage and the
    // replayable counterexample, exercised in the halt/resume wait
    // mode where a lost readiness edge really does strand the wave.
    McConfig mc =
        baseConfig(Granularity::WorkGroup, WaitMode::HaltResume);
    mc.mutants = {Mutant::LostEdge};
    ExploreOptions opts;
    opts.maxCounterexamples = 1;
    const ExploreResult r = core::gmc::exploreEtNetConfig(mc, opts);
    ASSERT_FALSE(r.violations.empty())
        << mc.name() << ": lost-edge mutant not found";
    const auto &cx = r.violations.front();
    EXPECT_EQ(cx.outcome.kind, "stuck")
        << "schedule " << sim::gmc::renderSchedule(cx.schedule) << ": "
        << cx.outcome.detail;

    const RunOutcome once = core::gmc::replayEtNetConfig(mc, cx.schedule);
    const RunOutcome twice =
        core::gmc::replayEtNetConfig(mc, cx.schedule);
    EXPECT_TRUE(once.violation);
    EXPECT_EQ(once.kind, cx.outcome.kind);
    EXPECT_EQ(once.kind, twice.kind);
    EXPECT_EQ(once.detail, twice.detail);
    EXPECT_EQ(once.endTick, twice.endTick);
    EXPECT_EQ(once.events, twice.events);
}

// --------------------------------------- SQ/CQ ring exploration

/** Ring analogue of expectMutantCaught: explore the ringScenario of
 *  @p mc, require a counterexample of kind @p kind, then replay its
 *  schedule twice and require identical outcomes. */
void
expectRingMutantCaught(McConfig mc, const char *kind)
{
    ExploreOptions opts;
    opts.maxCounterexamples = 1;
    const ExploreResult r = core::gmc::exploreRingConfig(mc, opts);
    ASSERT_FALSE(r.violations.empty())
        << mc.name() << ": ring mutant not found";
    const auto &cx = r.violations.front();
    EXPECT_EQ(cx.outcome.kind, kind)
        << "schedule " << sim::gmc::renderSchedule(cx.schedule) << ": "
        << cx.outcome.detail;

    const RunOutcome once =
        core::gmc::replayRingConfig(mc, cx.schedule);
    const RunOutcome twice =
        core::gmc::replayRingConfig(mc, cx.schedule);
    EXPECT_TRUE(once.violation);
    EXPECT_EQ(once.kind, cx.outcome.kind);
    EXPECT_EQ(once.kind, twice.kind);
    EXPECT_EQ(once.detail, twice.detail);
    EXPECT_EQ(once.endTick, twice.endTick);
    EXPECT_EQ(once.events, twice.events);
}

TEST(GmcRing, NameCarriesRingSuffix)
{
    McConfig mc = baseConfig(Granularity::WorkGroup, WaitMode::Polling);
    const std::string plain = mc.name();
    mc.useRings = true;
    mc.ringEntries = 4;
    EXPECT_EQ(mc.name(), plain + "-ring4");
}

TEST(GmcRing, FifoRunIsCleanAndDeterministic)
{
    const McConfig mc =
        baseConfig(Granularity::WorkGroup, WaitMode::Polling);
    const RunOutcome a = core::gmc::replayRingConfig(mc, {});
    const RunOutcome b = core::gmc::replayRingConfig(mc, {});
    EXPECT_FALSE(a.violation) << a.kind << ": " << a.detail;
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.endTick, b.endTick);
    EXPECT_EQ(a.events, b.events);
    // Ring submission changes the event structure, so the digest must
    // differ from the slot-doorbell run of the same config — proof the
    // scenario actually went through the rings.
    const RunOutcome slots = core::gmc::replayConfig(mc, {});
    EXPECT_NE(a.digest, slots.digest);
}

TEST(GmcRing, WorkGroupOneShardExhaustive)
{
    const McConfig mc =
        baseConfig(Granularity::WorkGroup, WaitMode::Polling);
    const ExploreResult r = core::gmc::exploreRingConfig(mc, {});
    EXPECT_TRUE(r.stats.exhaustive);
    EXPECT_GT(r.stats.schedulesRun, 1u);
    for (const auto &v : r.violations) {
        ADD_FAILURE() << mc.name() << " ring schedule "
                      << sim::gmc::renderSchedule(v.schedule) << ": "
                      << v.outcome.kind << " — " << v.outcome.detail;
    }
}

TEST(GmcRing, WorkItemOneShardExhaustive)
{
    // Work-item granularity submits wavefront-sized batches through
    // the single-entry model ring, so every chunk exercises the
    // SQ-full claim-retry path and the multi-batch doorbell decision.
    const McConfig mc =
        baseConfig(Granularity::WorkItem, WaitMode::Polling);
    const ExploreResult r = core::gmc::exploreRingConfig(mc, {});
    EXPECT_TRUE(r.stats.exhaustive);
    EXPECT_GT(r.stats.schedulesRun, 1u);
    for (const auto &v : r.violations) {
        ADD_FAILURE() << mc.name() << " ring schedule "
                      << sim::gmc::renderSchedule(v.schedule) << ": "
                      << v.outcome.kind << " — " << v.outcome.detail;
    }
}

TEST(GmcRingMutant, DroppedDoorbellStrandsBatch)
{
    // The mutant samples SQ occupancy once at chunk start and skips
    // the doorbell whenever the ring looked non-empty. With chunked
    // work-item submission the consumer can drain the sampled entries
    // and go idle before the next chunk publishes — that chunk's
    // doorbell is the only wake-up, and it never rings.
    McConfig mc = baseConfig(Granularity::WorkItem, WaitMode::Polling);
    mc.mutants = {Mutant::RingDropDoorbell};
    expectRingMutantCaught(mc, "stuck");
}

TEST(GmcRingMutant, CompletionBeforePublishStrandsWaiter)
{
    // The mutant posts the CQE and yields before servicing the entry.
    // FIFO hides it (the service continuation runs before the waiter's
    // next poll); gmc must find the order where the waiter observes
    // the tail advance, re-sweeps a still-unfinished slot, and then
    // elides every later sweep because the tail never moves again.
    McConfig mc = baseConfig(Granularity::WorkGroup, WaitMode::Polling);
    mc.mutants = {Mutant::RingCompleteBeforePublish};

    {
            const RunOutcome fifo = core::gmc::replayRingConfig(mc, {});
        EXPECT_FALSE(fifo.violation)
            << "FIFO already catches it: " << fifo.kind;
    }
    expectRingMutantCaught(mc, "stuck");
}

TEST(GmcRingMutant, StaleHeadReadSpinsOnFullRing)
{
    // The mutant never refreshes its observed head across claim
    // retries. The second chunk of a work-item batch finds the
    // single-entry ring full, and — with the head observation frozen
    // before the consumer's pop — retries forever on a ring that is
    // actually empty.
    McConfig mc = baseConfig(Granularity::WorkItem, WaitMode::Polling);
    mc.mutants = {Mutant::RingStaleHead};
    expectRingMutantCaught(mc, "stuck");
}

} // namespace
