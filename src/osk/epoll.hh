/**
 * @file
 * epoll-style readiness multiplexing (gnet).
 *
 * Level-triggered by default: epoll_wait reports every registered fd
 * whose readiness condition *currently* holds, re-probing the
 * underlying socket each time rather than replaying edge events. The
 * wait path is a plain blocking syscall handler, so a GPU work-group
 * that invokes epoll_wait through a syscall slot halts in waitSlots()
 * and is resumed by the normal doorbell/interrupt-coalescing machinery
 * once the handler returns — readiness integrates with halt/resume for
 * free, under both service backends.
 *
 * Edge-triggered (EPOLLET): readiness is delivered once per 0→1
 * transition of each condition bit. noteEvent() computes the edge set
 * (newly-ready bits relative to the last probe), records it on the
 * interest, and epoll_wait replays each recorded edge exactly once —
 * a waiter that arrives after the transition still sees it (replayed-
 * edge semantics), but a consumer that fails to drain to EAGAIN sees
 * nothing further until the level drops and rises again. EPOLLONESHOT
 * disarms the interest after one delivery; EPOLL_CTL_MOD re-arms it
 * and replays the current level as a fresh edge. Interests without
 * either mode bit take exactly the level-triggered code path above,
 * bit-for-bit.
 *
 * The check-then-sleep window in the wait loop is the classic lost-
 * wakeup shape; the gsan epollCheck/epollSleep/epollNotify hooks track
 * a per-instance notification sequence so a waiter that sleeps across
 * a missed notification is reported (and a seeded test hook can open
 * the window on purpose).
 */

#ifndef GENESYS_OSK_EPOLL_HH
#define GENESYS_OSK_EPOLL_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "osk/net.hh"
#include "osk/params.hh"
#include "osk/tcp.hh"
#include "sim/event_queue.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "support/types.hh"

namespace genesys::gsan
{
class Sanitizer;
}

namespace genesys::osk
{

// epoll_ctl ops and event bits (values match Linux).
inline constexpr int EPOLL_CTL_ADD_ = 1;
inline constexpr int EPOLL_CTL_DEL_ = 2;
inline constexpr int EPOLL_CTL_MOD_ = 3;
inline constexpr std::uint32_t EPOLLIN_ = 0x1;
inline constexpr std::uint32_t EPOLLOUT_ = 0x4;
inline constexpr std::uint32_t EPOLLERR_ = 0x8;
inline constexpr std::uint32_t EPOLLHUP_ = 0x10;
inline constexpr std::uint32_t EPOLLONESHOT_ = 0x40000000u;
inline constexpr std::uint32_t EPOLLET_ = 0x80000000u;

/** Mode bits (not readiness conditions) masked out of probes. */
inline constexpr std::uint32_t kEpollModeBits =
    EPOLLET_ | EPOLLONESHOT_;

/** Waiter cookie used by CPU-side epoll_wait callers (no wave slot). */
inline constexpr std::uint64_t kEpollHostWaiter = ~0ull;

/** Userspace event record (a compact epoll_event). */
struct EpollEvent
{
    std::uint32_t events = 0; ///< EPOLL* bits that hold.
    std::uint64_t data = 0;   ///< caller cookie from epoll_ctl.
};

/** Which socket table an interest resolves into. */
enum class SockKind : std::uint8_t
{
    Udp,
    Tcp,
};

class EpollSystem;

/** One epoll instance: an interest list plus its wait queue. */
class EpollInstance
{
  public:
    EpollInstance(EpollSystem &sys, int id);

    int id() const { return id_; }

    /** @return 0 or negative errno (EEXIST, ENOENT, EINVAL). */
    int ctl(int op, int fd, SockKind kind, int sock_id,
            std::uint32_t mask, std::uint64_t data);

    /**
     * Collect ready fds (up to @p max_events), blocking up to
     * @p timeout_ns (-1 = forever, 0 = poll). @p waiter is an opaque
     * cookie identifying the blocked requester (the GPU passes its
     * hardware wave slot) used for per-shard wake accounting and gsan.
     * @return number of events, 0 on timeout, negative errno.
     */
    sim::Task<std::int64_t> wait(EpollEvent *events, int max_events,
                                 std::int64_t timeout_ns,
                                 std::uint64_t waiter);

    /** Drop any interest registered for process fd @p fd. */
    void forgetFd(int fd);

    /** Drop interests resolving to @p kind/@p sock_id. */
    void forgetSocket(SockKind kind, int sock_id);

    bool watches(SockKind kind, int sock_id) const;

    std::size_t interestCount() const { return interests_.size(); }

  private:
    friend class EpollSystem;

    struct Interest
    {
        SockKind kind = SockKind::Udp;
        int sockId = -1;
        std::uint32_t mask = 0;
        std::uint64_t data = 0;
        // Edge-triggered state (unused — all zero — for pure-LT
        // interests, which never touch these fields).
        std::uint32_t lastReady = 0; ///< readiness at the last probe.
        std::uint32_t pending = 0;   ///< recorded, undelivered edges.
        bool armed = true;           ///< false after ONESHOT delivery.

        bool edgeMode() const
        {
            return (mask & kEpollModeBits) != 0;
        }
        /** Condition bits this interest reports (ERR/HUP always). */
        std::uint32_t condMask() const
        {
            return (mask & ~kEpollModeBits) | EPOLLERR_ | EPOLLHUP_;
        }
    };

    int collectReady(EpollEvent *events, int max_events);

    /**
     * Record readiness edges for edge-mode interests watching
     * @p kind/@p sock_id. @return true when a fresh pending edge
     * appeared on an armed interest (the waiters need a wake).
     */
    bool noteEdges(SockKind kind, int sock_id);

    /**
     * Latch @p edges as pending on @p in (unless the seeded lost-edge
     * mutant eats it). @return true when waiters should be woken.
     */
    bool recordEdge(Interest &in, std::uint32_t edges);

    /** True if a level-triggered interest watches @p kind/@p sock_id. */
    bool hasLtInterest(SockKind kind, int sock_id) const;

    /** gsan readiness-channel key (instance id). */
    std::uint64_t gsanKey() const
    {
        return static_cast<std::uint64_t>(id_);
    }

    EpollSystem &sys_;
    int id_;
    bool closed_ = false;
    std::map<int, Interest> interests_; ///< keyed by process fd.
    std::shared_ptr<sim::WaitQueue> wait_q_;
    /// Waiter cookies currently blocked (for wake fanout accounting).
    std::map<std::uint64_t, std::uint32_t> blocked_;
};

/**
 * Kernel-wide epoll state: instance table plus the readiness fanout
 * from the socket stacks to blocked waiters.
 */
class EpollSystem
{
  public:
    EpollSystem(sim::EventQueue &eq, const OskParams &params,
                UdpStack &udp, TcpStack &tcp);

    /** Create an instance. @return its id. */
    int create();
    EpollInstance *instance(int id) const;
    bool close(int id);

    /** Readiness change on @p kind/@p sock_id: wake watchers. */
    void noteEvent(SockKind kind, int sock_id);

    /** Remove a closing socket from every instance's interests. */
    void forgetSocket(SockKind kind, int sock_id);

    void setSanitizer(gsan::Sanitizer *gsan) { gsan_ = gsan; }

    /**
     * Observer invoked once per blocked waiter each time a readiness
     * event wakes it (cookie = the waiter hint from epoll_wait). The
     * System maps GPU cookies to syscall-area shards for the per-shard
     * fanout counters under /sys/genesys/net/epoll/.
     */
    void setWakeObserver(std::function<void(std::uint64_t)> cb)
    {
        wake_observer_ = std::move(cb);
    }

    sim::EventQueue &events() { return eq_; }
    const OskParams &params() const { return params_; }
    UdpStack &udp() { return udp_; }
    TcpStack &tcp() { return tcp_; }

    std::uint64_t waits() const { return waits_; }
    std::uint64_t wakeups() const { return wakeups_; }
    std::uint64_t notifies() const { return notifies_; }
    std::uint64_t timeouts() const { return timeouts_; }
    std::uint64_t edgesRecorded() const { return edgesRecorded_; }
    std::uint64_t edgesDelivered() const { return edgesDelivered_; }

  private:
    friend class EpollInstance;

    /** Level-triggered readiness of one socket. */
    std::uint32_t probe(SockKind kind, int sock_id) const;

    sim::EventQueue &eq_;
    const OskParams &params_;
    UdpStack &udp_;
    TcpStack &tcp_;
    gsan::Sanitizer *gsan_ = nullptr;
    std::function<void(std::uint64_t)> wake_observer_;
    std::map<int, std::unique_ptr<EpollInstance>> instances_;
    /** Closed instances with possibly-live waiters (see close()). */
    std::vector<std::unique_ptr<EpollInstance>> graveyard_;
    int next_id_ = 1;
    std::uint64_t waits_ = 0;
    std::uint64_t wakeups_ = 0;
    std::uint64_t notifies_ = 0;
    std::uint64_t timeouts_ = 0;
    std::uint64_t edgesRecorded_ = 0;
    std::uint64_t edgesDelivered_ = 0;
    /// Mutant::LostEdge drops only the first edge of each system.
    bool lost_edge_fired_ = false;
};

} // namespace genesys::osk

#endif // GENESYS_OSK_EPOLL_HH
