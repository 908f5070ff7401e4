/**
 * @file
 * Lazy coroutine task with symmetric transfer.
 *
 * Task<T> is the unit of concurrency in the simulator: a wavefront, a
 * CPU core loop, an OS worker thread, a memcached client — each is a
 * coroutine returning Task<>. Tasks are lazy (nothing runs until they
 * are awaited or spawned as a root via Spawner) and propagate both
 * values and exceptions to their awaiter.
 */

#ifndef GENESYS_SIM_TASK_HH
#define GENESYS_SIM_TASK_HH

#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "support/logging.hh"

namespace genesys::sim
{

template <typename T = void>
class Task;

namespace detail
{

struct PromiseBase
{
    std::coroutine_handle<> continuation;
    std::exception_ptr error;

    struct FinalAwaiter
    {
        bool await_ready() const noexcept { return false; }

        template <typename Promise>
        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<Promise> h) noexcept
        {
            // Resume whoever co_awaited us; if nobody did (detached
            // completion), park on the noop coroutine.
            auto cont = h.promise().continuation;
            return cont ? cont : std::noop_coroutine();
        }

        void await_resume() const noexcept {}
    };

    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }
    void unhandled_exception() { error = std::current_exception(); }
};

} // namespace detail

/** A lazily-started coroutine producing a T (or void). */
template <typename T>
class [[nodiscard]] Task
{
  public:
    struct promise_type : detail::PromiseBase
    {
        std::optional<T> value;

        Task
        get_return_object()
        {
            return Task(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }

        template <typename U>
        void
        return_value(U &&v)
        {
            value.emplace(std::forward<U>(v));
        }
    };

    using Handle = std::coroutine_handle<promise_type>;

    Task() = default;
    explicit Task(Handle h) : handle_(h) {}
    Task(Task &&other) noexcept
        : handle_(std::exchange(other.handle_, nullptr))
    {}
    Task &
    operator=(Task &&other) noexcept
    {
        if (this != &other) {
            destroy();
            handle_ = std::exchange(other.handle_, nullptr);
        }
        return *this;
    }
    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;
    ~Task() { destroy(); }

    bool valid() const { return handle_ != nullptr; }

    // Awaiter protocol: `co_await task` starts the task and suspends the
    // awaiter until the task finishes.
    bool await_ready() const noexcept { return !handle_ || handle_.done(); }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> cont) noexcept
    {
        handle_.promise().continuation = cont;
        return handle_;
    }

    T
    await_resume()
    {
        auto &p = handle_.promise();
        if (p.error)
            std::rethrow_exception(p.error);
        GENESYS_ASSERT(p.value.has_value(), "task finished without value");
        return std::move(*p.value);
    }

  private:
    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = nullptr;
        }
    }

    Handle handle_ = nullptr;
};

/** void specialization. */
template <>
class [[nodiscard]] Task<void>
{
  public:
    struct promise_type : detail::PromiseBase
    {
        Task
        get_return_object()
        {
            return Task(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }

        void return_void() {}
    };

    using Handle = std::coroutine_handle<promise_type>;

    Task() = default;
    explicit Task(Handle h) : handle_(h) {}
    Task(Task &&other) noexcept
        : handle_(std::exchange(other.handle_, nullptr))
    {}
    Task &
    operator=(Task &&other) noexcept
    {
        if (this != &other) {
            destroy();
            handle_ = std::exchange(other.handle_, nullptr);
        }
        return *this;
    }
    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;
    ~Task() { destroy(); }

    bool valid() const { return handle_ != nullptr; }

    bool await_ready() const noexcept { return !handle_ || handle_.done(); }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> cont) noexcept
    {
        handle_.promise().continuation = cont;
        return handle_;
    }

    void
    await_resume()
    {
        // An empty task (default-constructed) is ready and has done
        // nothing: awaiting it is a no-op.
        if (handle_ && handle_.promise().error)
            std::rethrow_exception(handle_.promise().error);
    }

  private:
    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = nullptr;
        }
    }

    Handle handle_ = nullptr;
};

} // namespace genesys::sim

#endif // GENESYS_SIM_TASK_HH
