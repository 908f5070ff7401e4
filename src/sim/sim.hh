/**
 * @file
 * Simulation context: event queue + root-task spawner + RNG.
 *
 * A Sim owns everything a model needs to run. Root tasks (spawned via
 * spawn()) execute concurrently over the shared event queue; run()
 * drives the queue and rethrows the first exception any root task
 * raised, so test failures inside coroutines surface normally. Root
 * tasks still suspended at teardown (perpetual service loops, waves
 * halted forever) are destroyed with the Sim, never leaked.
 */

#ifndef GENESYS_SIM_SIM_HH
#define GENESYS_SIM_SIM_HH

#include <cstddef>
#include <exception>
#include <string>

#include "sim/event_queue.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "support/random.hh"
#include "support/types.hh"

namespace genesys::sim
{

class Sim
{
  public:
    explicit Sim(std::uint64_t seed = 1) : random_(seed) {}
    ~Sim() { destroyRoots(); }

    Sim(const Sim &) = delete;
    Sim &operator=(const Sim &) = delete;

    EventQueue &events() { return eq_; }
    Tick now() const { return eq_.now(); }
    Random &random() { return random_; }

    /** Awaitable fixed delay. */
    Delay delay(Tick ticks) { return Delay(eq_, ticks); }

    /**
     * Launch @p task as a root coroutine. It starts at the current tick
     * and runs to completion as events fire. An escaping exception is
     * captured and rethrown from run()/runFor().
     */
    void spawn(Task<> task);

    /** Number of spawned root tasks that have not yet finished. */
    std::size_t liveTasks() const { return liveTasks_; }

    /**
     * Destroy every root task still suspended, newest first, together
     * with the task chain it awaits. The queue must not run again
     * afterwards: pending events may still name the destroyed frames.
     * An owner whose objects the frames reference (System) calls this
     * before tearing them down; ~Sim calls it last.
     */
    void destroyRoots();

    /**
     * Run until the event queue drains or @p limit is reached. When
     * @p max_events is non-zero, additionally stop after that many
     * events (model-checking budget for schedules that never quiesce).
     * Rethrows the first exception any root task raised either way.
     * @return final simulated time.
     */
    Tick run(Tick limit = kMaxTick, std::uint64_t max_events = 0);

    /** Run for a further @p duration ticks. */
    Tick runFor(Tick duration) { return run(eq_.now() + duration); }

  private:
    // Eager, self-destroying wrapper coroutine that owns a root Task.
    // Its promise links the frame into roots_ for its whole lifetime.
    struct RootTask
    {
        struct promise_type
        {
            promise_type(Sim &sim, Task<> &) : sim_(sim)
            {
                next_ = sim_.roots_;
                if (next_ != nullptr)
                    next_->prev_ = this;
                sim_.roots_ = this;
                ++sim_.liveTasks_;
            }
            ~promise_type()
            {
                (prev_ != nullptr ? prev_->next_ : sim_.roots_) = next_;
                if (next_ != nullptr)
                    next_->prev_ = prev_;
                --sim_.liveTasks_;
            }
            promise_type(const promise_type &) = delete;
            promise_type &operator=(const promise_type &) = delete;

            RootTask get_return_object() { return {}; }
            std::suspend_never initial_suspend() noexcept { return {}; }
            std::suspend_never final_suspend() noexcept { return {}; }
            void return_void() {}
            void unhandled_exception() { std::terminate(); }

            Sim &sim_;
            promise_type *prev_ = nullptr;
            promise_type *next_ = nullptr;
        };
    };

    RootTask runRoot(Task<> task);

    EventQueue eq_;
    Random random_;
    std::size_t liveTasks_ = 0;
    RootTask::promise_type *roots_ = nullptr; ///< newest live root
    std::exception_ptr firstError_;
};

} // namespace genesys::sim

#endif // GENESYS_SIM_SIM_HH
