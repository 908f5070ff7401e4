/**
 * @file
 * Unit tests for the discrete-event kernel and coroutine primitives.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/future.hh"
#include "sim/sim.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "support/logging.hh"

namespace genesys::sim
{
namespace
{

// ------------------------------------------------------------ EventQueue

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(100, [&order, i] { order.push_back(i); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ScheduleInPastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_THROW(eq.schedule(5, [] {}), PanicError);
}

TEST(EventQueue, DescheduleCancelsEvent)
{
    EventQueue eq;
    bool fired = false;
    auto id = eq.schedule(10, [&] { fired = true; });
    EXPECT_TRUE(eq.deschedule(id));
    eq.run();
    EXPECT_FALSE(fired);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, DoubleDescheduleIsNoop)
{
    EventQueue eq;
    auto id = eq.schedule(10, [] {});
    EXPECT_TRUE(eq.deschedule(id));
    EXPECT_FALSE(eq.deschedule(id));
}

TEST(EventQueue, RunHonorsLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    eq.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 50u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 10)
            eq.scheduleIn(1, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(depth, 10);
    EXPECT_EQ(eq.now(), 9u);
}

// ------------------------------------------------------------------ tasks

Task<int>
answer()
{
    co_return 42;
}

Task<int>
addOne(Task<int> inner)
{
    const int v = co_await std::move(inner);
    co_return v + 1;
}

TEST(Task, SpawnedTaskRunsToCompletion)
{
    Sim sim;
    int result = 0;
    sim.spawn([](Sim &, int &out) -> Task<> {
        out = co_await answer();
    }(sim, result));
    sim.run();
    EXPECT_EQ(result, 42);
    EXPECT_EQ(sim.liveTasks(), 0u);
}

TEST(Task, NestedAwaitPropagatesValues)
{
    Sim sim;
    int result = 0;
    sim.spawn([](int &out) -> Task<> {
        out = co_await addOne(addOne(answer()));
    }(result));
    sim.run();
    EXPECT_EQ(result, 44);
}

TEST(Task, ExceptionPropagatesThroughAwaitChain)
{
    Sim sim;
    bool caught = false;
    sim.spawn([](bool &flag) -> Task<> {
        auto thrower = []() -> Task<int> {
            fatal("inner failure");
            co_return 0;
        };
        try {
            co_await thrower();
        } catch (const FatalError &) {
            flag = true;
        }
    }(caught));
    sim.run();
    EXPECT_TRUE(caught);
}

TEST(Task, UncaughtExceptionSurfacesFromRun)
{
    Sim sim;
    sim.spawn([]() -> Task<> {
        fatal("root failure");
        co_return;
    }());
    EXPECT_THROW(sim.run(), FatalError);
}

TEST(Task, DelayAdvancesSimTime)
{
    Sim sim;
    Tick observed = 0;
    sim.spawn([](Sim &s, Tick &out) -> Task<> {
        co_await s.delay(250);
        out = s.now();
    }(sim, observed));
    sim.run();
    EXPECT_EQ(observed, 250u);
}

TEST(Task, ConcurrentTasksInterleaveDeterministically)
{
    Sim sim;
    std::string trace;
    auto worker = [](Sim &s, std::string &t, char tag,
                     Tick step) -> Task<> {
        for (int i = 0; i < 3; ++i) {
            co_await s.delay(step);
            t.push_back(tag);
        }
    };
    sim.spawn(worker(sim, trace, 'a', 10));
    sim.spawn(worker(sim, trace, 'b', 15));
    sim.run();
    // a: 10,20,30  b: 15,30,45. At tick 30 both fire; b scheduled its
    // event earlier (at t=15) than a (at t=20), so FIFO runs b first.
    EXPECT_EQ(trace, "ababab");
}

/** Counts its destructions: a frame local that proves teardown. */
struct DtorCounter
{
    int &count;
    ~DtorCounter() { ++count; }
};

Task<>
holdForever(WaitQueue &never, int &destroyed)
{
    DtorCounter guard{destroyed};
    co_await never.wait();
}

TEST(Task, SimTeardownDestroysSuspendedRootTasks)
{
    int destroyed = 0;
    {
        Sim sim;
        WaitQueue never(sim.events());
        sim.spawn(holdForever(never, destroyed));
        // A root suspended in a child task: teardown reaches the
        // whole awaited chain, not just the root frame.
        sim.spawn([](WaitQueue &q, int &count) -> Task<> {
            DtorCounter guard{count};
            co_await holdForever(q, count);
        }(never, destroyed));
        sim.run();
        EXPECT_EQ(sim.liveTasks(), 2u);
        EXPECT_EQ(destroyed, 0);
    }
    EXPECT_EQ(destroyed, 3);
}

// ------------------------------------------------------------------- sync

TEST(Sync, WaitQueueWakesInFifoOrder)
{
    Sim sim;
    WaitQueue q(sim.events());
    std::vector<int> order;
    for (int i = 0; i < 3; ++i) {
        sim.spawn([](WaitQueue &wq, std::vector<int> &out,
                     int id) -> Task<> {
            co_await wq.wait();
            out.push_back(id);
        }(q, order, i));
    }
    sim.run();
    EXPECT_EQ(q.waiting(), 3u);
    q.notifyAll();
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Sync, WaitQueueNotifyOneWakesSingleWaiter)
{
    Sim sim;
    WaitQueue q(sim.events());
    int woke = 0;
    for (int i = 0; i < 2; ++i) {
        sim.spawn([](WaitQueue &wq, int &n) -> Task<> {
            co_await wq.wait();
            ++n;
        }(q, woke));
    }
    sim.run();
    q.notifyOne();
    sim.run();
    EXPECT_EQ(woke, 1);
    EXPECT_EQ(q.waiting(), 1u);
}

TEST(Sync, NotifyLatencyDelaysWake)
{
    Sim sim;
    WaitQueue q(sim.events());
    Tick woke_at = 0;
    sim.spawn([](Sim &s, WaitQueue &wq, Tick &out) -> Task<> {
        co_await wq.wait();
        out = s.now();
    }(sim, q, woke_at));
    sim.run();
    q.notifyOne(ticks::us(5));
    sim.run();
    EXPECT_EQ(woke_at, ticks::us(5));
}

TEST(Sync, SemaphoreLimitsConcurrency)
{
    Sim sim;
    Semaphore sem(sim.events(), 2);
    int active = 0, peak = 0;
    for (int i = 0; i < 6; ++i) {
        sim.spawn([](Sim &s, Semaphore &sm, int &act, int &pk) -> Task<> {
            co_await sm.acquire();
            ++act;
            pk = std::max(pk, act);
            co_await s.delay(10);
            --act;
            sm.release();
        }(sim, sem, active, peak));
    }
    sim.run();
    EXPECT_EQ(peak, 2);
    EXPECT_EQ(active, 0);
    EXPECT_EQ(sem.available(), 2u);
}

TEST(Sync, SemaphoreTryAcquire)
{
    Sim sim;
    Semaphore sem(sim.events(), 1);
    EXPECT_TRUE(sem.tryAcquire());
    EXPECT_FALSE(sem.tryAcquire());
    sem.release();
    EXPECT_TRUE(sem.tryAcquire());
}

TEST(Sync, BarrierReleasesAllPartiesTogether)
{
    Sim sim;
    Barrier bar(sim.events(), 4);
    std::vector<Tick> release_times;
    for (int i = 0; i < 4; ++i) {
        sim.spawn([](Sim &s, Barrier &b, std::vector<Tick> &out,
                     Tick arrive) -> Task<> {
            co_await s.delay(arrive);
            co_await b.arriveAndWait();
            out.push_back(s.now());
        }(sim, bar, release_times, Tick(i * 100)));
    }
    sim.run();
    ASSERT_EQ(release_times.size(), 4u);
    for (Tick t : release_times)
        EXPECT_EQ(t, 300u); // all released when the last (300ns) arrives
}

TEST(Sync, BarrierIsReusableAcrossRounds)
{
    Sim sim;
    Barrier bar(sim.events(), 2);
    int rounds_done = 0;
    for (int i = 0; i < 2; ++i) {
        sim.spawn([](Sim &s, Barrier &b, int &done, int id) -> Task<> {
            for (int round = 0; round < 3; ++round) {
                co_await s.delay(Tick(10 * (id + 1)));
                co_await b.arriveAndWait();
            }
            ++done;
        }(sim, bar, rounds_done, i));
    }
    sim.run();
    EXPECT_EQ(rounds_done, 2);
}

TEST(Sync, BarrierZeroPartiesPanics)
{
    Sim sim;
    EXPECT_THROW(Barrier(sim.events(), 0), PanicError);
}

// ----------------------------------------------------------------- future

TEST(Future, ValueDeliveredToAwaiter)
{
    Sim sim;
    Promise<int> p(sim.events());
    int got = 0;
    sim.spawn([](Promise<int> &pr, int &out) -> Task<> {
        out = co_await pr.future();
    }(p, got));
    sim.run();
    EXPECT_EQ(got, 0);
    p.set(99);
    sim.run();
    EXPECT_EQ(got, 99);
}

TEST(Future, ReadyFutureDoesNotSuspend)
{
    Sim sim;
    Promise<int> p(sim.events());
    p.set(5);
    int got = 0;
    sim.spawn([](Promise<int> &pr, int &out) -> Task<> {
        out = co_await pr.future();
    }(p, got));
    sim.run();
    EXPECT_EQ(got, 5);
}

TEST(Future, MultipleWaitersAllWoken)
{
    Sim sim;
    Promise<int> p(sim.events());
    int sum = 0;
    for (int i = 0; i < 3; ++i) {
        sim.spawn([](Promise<int> &pr, int &s) -> Task<> {
            s += co_await pr.future();
        }(p, sum));
    }
    sim.run();
    p.set(10);
    sim.run();
    EXPECT_EQ(sum, 30);
}

TEST(Future, ErrorRethrownAtAwaiter)
{
    Sim sim;
    Promise<int> p(sim.events());
    bool caught = false;
    sim.spawn([](Promise<int> &pr, bool &flag) -> Task<> {
        try {
            co_await pr.future();
        } catch (const FatalError &) {
            flag = true;
        }
    }(p, caught));
    sim.run();
    p.setError(std::make_exception_ptr(FatalError("io error")));
    sim.run();
    EXPECT_TRUE(caught);
}

TEST(Future, DoubleSetPanics)
{
    Sim sim;
    Promise<int> p(sim.events());
    p.set(1);
    EXPECT_THROW(p.set(2), PanicError);
}

} // namespace
} // namespace genesys::sim
