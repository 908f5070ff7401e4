/**
 * @file
 * Sim implementation.
 */

#include "sim.hh"

#include <utility>

#include "support/logging.hh"

namespace genesys::sim
{

Sim::RootTask
Sim::runRoot(Task<> task)
{
    try {
        co_await std::move(task);
    } catch (...) {
        if (!firstError_)
            firstError_ = std::current_exception();
    }
}

void
Sim::spawn(Task<> task)
{
    // The RootTask coroutine is eager: it runs the wrapped task up to
    // its first suspension immediately, then continues via the queue.
    runRoot(std::move(task));
}

void
Sim::destroyRoots()
{
    // Each destroy() unlinks its frame from roots_.
    while (roots_ != nullptr) {
        std::coroutine_handle<RootTask::promise_type>::from_promise(
            *roots_)
            .destroy();
    }
}

Tick
Sim::run(Tick limit, std::uint64_t max_events)
{
    const Tick end = eq_.run(limit, max_events);
    if (firstError_) {
        auto e = std::exchange(firstError_, nullptr);
        std::rethrow_exception(e);
    }
    return end;
}

} // namespace genesys::sim
