/**
 * @file
 * GPU-side GENESYS API.
 *
 * Exposes the paper's design space as first-class invocation
 * parameters (Section V):
 *
 *  - Granularity: per work-item, per work-group, or per kernel.
 *  - Ordering: strong (barriers before and after) or relaxed; relaxed
 *    placement depends on whether the call consumes GPU-produced data
 *    (write-like: barrier before only) or produces data for the GPU
 *    (read-like: barrier after only).
 *  - Blocking: blocking waits for the CPU's result; non-blocking
 *    returns as soon as the request is published.
 *  - WaitMode: blocking waiters either poll the slot (atomic loads
 *    through the coherent L2) or halt the wavefront and wait for a
 *    CPU resume message.
 *
 * Semantics enforced from the paper:
 *  - work-item granularity implies strong ordering;
 *  - kernel granularity requires relaxed ordering (strong would
 *    deadlock a grid larger than the device's residency).
 *
 * POSIX wrappers cover the system calls GENESYS implements.
 */

#ifndef GENESYS_CORE_CLIENT_HH
#define GENESYS_CORE_CLIENT_HH

#include <cstdint>
#include <functional>
#include <optional>

#include "core/params.hh"
#include "core/slot.hh"
#include "gpu/gpu.hh"
#include "osk/epoll.hh"
#include "osk/net.hh"
#include "osk/signals.hh"
#include "osk/syscalls.hh"

namespace genesys::core
{

enum class Granularity
{
    WorkItem,
    WorkGroup,
    Kernel,
};

enum class Ordering
{
    Strong,
    Relaxed,
};

enum class Blocking
{
    Blocking,
    NonBlocking,
};

/** Data-flow direction of the call, for relaxed barrier placement. */
enum class Role
{
    Producer, ///< read-like: the call produces data the GPU consumes
    Consumer, ///< write-like: the call consumes data the GPU produced
};

struct Invocation
{
    Granularity granularity = Granularity::WorkGroup;
    Ordering ordering = Ordering::Strong;
    Blocking blocking = Blocking::Blocking;
    WaitMode waitMode = WaitMode::Polling;
    Role role = Role::Consumer;
};

const char *granularityName(Granularity g);
const char *orderingName(Ordering o);
const char *blockingName(Blocking b);
const char *waitModeName(WaitMode w);

// gstat: opaque(GpuSyscalls) — device-side wrapper API whose method
// names deliberately mirror POSIX (read/write/close/...); unqualified
// calls in the host OS tree must never resolve into it.
class GpuSyscalls
{
  public:
    GpuSyscalls(gpu::GpuDevice &gpu, SyscallArea &area,
                const GenesysParams &params)
        : gpu_(gpu), area_(area), params_(params)
    {}

    /**
     * Work-group granularity invocation. Every wavefront of the group
     * must call this (the barriers span the group); the group-leader
     * lane performs the actual call.
     * @return the syscall result on the leader wave; 0 elsewhere and
     *         for non-blocking invocations.
     */
    sim::Task<std::int64_t>
    invokeWorkGroup(gpu::WavefrontCtx &ctx, Invocation inv,
                    int sysno, osk::SyscallArgs args);

    /**
     * Kernel granularity: every wavefront calls this; only work-group
     * 0's leader invokes. Requires relaxed ordering (fatal otherwise).
     */
    sim::Task<std::int64_t>
    invokeKernel(gpu::WavefrontCtx &ctx, Invocation inv,
                 int sysno, osk::SyscallArgs args);

    /**
     * Work-item granularity: each active lane of this wavefront issues
     * its own request (strong ordering is implied; requesting relaxed
     * ordering is fatal).
     *
     * @param lane_args  per-lane arguments; std::nullopt marks an
     *                   inactive (diverged) lane.
     * @param on_result  invoked per lane with the syscall result
     *                   (blocking invocations only).
     */
    sim::Task<>
    invokeWorkItems(
        gpu::WavefrontCtx &ctx, Invocation inv, int sysno,
        std::function<std::optional<osk::SyscallArgs>(std::uint32_t)>
            lane_args,
        std::function<void(std::uint32_t, std::int64_t)> on_result = {});

    /** One lane's gather/scatter list for vectored invocation. */
    struct LaneVec
    {
        int fd = -1;
        const osk::IoVec *iov = nullptr;
        int cnt = 0;
        std::uint64_t flags = 0;
    };

    /**
     * Vectored work-item invocation (readv/writev/sendmsg/recvmsg):
     * each active lane stages its iovec list in the wave's window of
     * the shard descriptor page (one timed store per touched line, at
     * most iovecEntriesPerLane descriptors per lane), then the wave
     * issues one request per lane whose SQ entry carries the whole
     * list by reference. A lane whose count is negative or exceeds
     * its window gets -EINVAL (readv past IOV_MAX) and issues
     * nothing. Semantics otherwise match invokeWorkItems (strong
     * ordering implied, per-lane recovery, one doorbell per round in
     * ring mode).
     */
    sim::Task<>
    invokeWorkItemsVectored(
        gpu::WavefrontCtx &ctx, Invocation inv, int sysno,
        std::function<std::optional<LaneVec>(std::uint32_t)> lane_vecs,
        std::function<void(std::uint32_t, std::int64_t)> on_result = {});

    // ---- POSIX wrappers (work-group/kernel granularity) -----------
    sim::Task<std::int64_t> open(gpu::WavefrontCtx &, Invocation,
                                 const char *path, int flags);
    sim::Task<std::int64_t> close(gpu::WavefrontCtx &, Invocation,
                                  int fd);
    sim::Task<std::int64_t> read(gpu::WavefrontCtx &, Invocation,
                                 int fd, void *buf, std::uint64_t len);
    sim::Task<std::int64_t> write(gpu::WavefrontCtx &, Invocation,
                                  int fd, const void *buf,
                                  std::uint64_t len);
    sim::Task<std::int64_t> pread(gpu::WavefrontCtx &, Invocation,
                                  int fd, void *buf, std::uint64_t len,
                                  std::int64_t offset);
    sim::Task<std::int64_t> pwrite(gpu::WavefrontCtx &, Invocation,
                                   int fd, const void *buf,
                                   std::uint64_t len,
                                   std::int64_t offset);
    sim::Task<std::int64_t> lseek(gpu::WavefrontCtx &, Invocation,
                                  int fd, std::int64_t offset,
                                  int whence);
    sim::Task<std::int64_t> mmap(gpu::WavefrontCtx &, Invocation,
                                 std::uint64_t length, int fd);
    sim::Task<std::int64_t> munmap(gpu::WavefrontCtx &, Invocation,
                                   std::uint64_t addr,
                                   std::uint64_t length);
    sim::Task<std::int64_t> madvise(gpu::WavefrontCtx &, Invocation,
                                    std::uint64_t addr,
                                    std::uint64_t length, int advice);
    sim::Task<std::int64_t> getrusage(gpu::WavefrontCtx &, Invocation,
                                      osk::RUsage *usage);
    sim::Task<std::int64_t> rtSigqueueinfo(gpu::WavefrontCtx &,
                                           Invocation, int pid,
                                           int signo,
                                           const osk::SigInfo *info);
    sim::Task<std::int64_t> sendto(gpu::WavefrontCtx &, Invocation,
                                   int fd, const void *buf,
                                   std::uint64_t len,
                                   const osk::SockAddr *dest);
    sim::Task<std::int64_t> recvfrom(gpu::WavefrontCtx &, Invocation,
                                     int fd, void *buf,
                                     std::uint64_t len,
                                     osk::SockAddr *src);
    sim::Task<std::int64_t> ioctl(gpu::WavefrontCtx &, Invocation,
                                  int fd, std::uint64_t request,
                                  void *argp);

    // ---- vectored I/O (work-group/kernel granularity) --------------
    sim::Task<std::int64_t> readv(gpu::WavefrontCtx &, Invocation,
                                  int fd, const osk::IoVec *iov,
                                  int cnt);
    sim::Task<std::int64_t> writev(gpu::WavefrontCtx &, Invocation,
                                   int fd, const osk::IoVec *iov,
                                   int cnt);
    sim::Task<std::int64_t> sendmsg(gpu::WavefrontCtx &, Invocation,
                                    int fd, const osk::IoVec *iov,
                                    int cnt, std::uint64_t flags);
    /**
     * Collapsed msghdr: (fd, iov, cnt, flags). With MSG_ZEROCOPY the
     * kernel rewrites @p iov in place to point into loaned wire
     * segments (see osk/tcp.hh); with MSG_DONTWAIT an empty receive
     * chain returns -EAGAIN — the edge-triggered drain primitive.
     */
    sim::Task<std::int64_t> recvmsg(gpu::WavefrontCtx &, Invocation,
                                    int fd, osk::IoVec *iov, int cnt,
                                    std::uint64_t flags);

    // ---- gnet: stream sockets + readiness ---------------------------
    sim::Task<std::int64_t> connect(gpu::WavefrontCtx &, Invocation,
                                    int fd, const osk::SockAddr *addr);
    sim::Task<std::int64_t> listen(gpu::WavefrontCtx &, Invocation,
                                   int fd, int backlog);
    sim::Task<std::int64_t> accept(gpu::WavefrontCtx &, Invocation,
                                   int fd, osk::SockAddr *peer);
    sim::Task<std::int64_t> shutdown(gpu::WavefrontCtx &, Invocation,
                                     int fd, int how);
    sim::Task<std::int64_t> epollCreate(gpu::WavefrontCtx &,
                                        Invocation);
    sim::Task<std::int64_t> epollCtl(gpu::WavefrontCtx &, Invocation,
                                     int epfd, int op, int fd,
                                     const osk::EpollEvent *event);
    /**
     * epoll_wait through a syscall slot: the slot payload carries the
     * requester's hardware wave slot (arg[4]) so readiness wake-ups
     * can be attributed per syscall-area shard. A blocked work-group
     * halts/polls exactly like any other blocking call.
     */
    sim::Task<std::int64_t> epollWait(gpu::WavefrontCtx &, Invocation,
                                      int epfd,
                                      osk::EpollEvent *events,
                                      int max_events,
                                      std::int64_t timeout_ns);

    /** Attach the happens-before sanitizer (may be null). */
    void setSanitizer(gsan::Sanitizer *gsan) { gsan_ = gsan; }

    // ---- stats -----------------------------------------------------
    std::uint64_t issuedRequests() const { return issued_; }
    /** Transparent EINTR restarts + EAGAIN retries performed. */
    std::uint64_t syscallRetries() const { return retries_; }
    /** Short read/write results continued with a follow-up request. */
    std::uint64_t shortTransfers() const { return shortTransfers_; }
    /** Ring mode: claim retries while the SQ looked full. */
    std::uint64_t ringFullRetries() const { return ringFullRetries_; }

  private:
    /** Granularity dispatch for the POSIX wrappers: kernel or group. */
    sim::Task<std::int64_t> invoke(gpu::WavefrontCtx &ctx,
                                   Invocation inv, Role role, int sysno,
                                   const osk::SyscallArgs &args);

    /** One request's requester-side recovery state. */
    struct Recovery
    {
        std::uint64_t done = 0; ///< bytes transferred so far
        std::uint32_t restarts = 0;
        std::uint32_t congested = 0;
    };

    /** What a requester does next with a result (see recover()). */
    enum class Recover
    {
        Done,    ///< surface the (rewritten) result
        Reissue, ///< issue again now with the (advanced) arguments
        Backoff, ///< stall, then issue again
    };

    /**
     * The libc layer shared by the leader-lane and per-lane paths:
     * EINTR restart, EAGAIN retry budget, short-transfer continuation
     * (advancing @p args). On Done, @p ret holds the value to surface.
     * Each caller owns its stall (leader: doubling; wave: flat).
     */
    Recover recover(int sysno, osk::SyscallArgs &args, Recovery &rec,
                    std::int64_t &ret);

    /**
     * Leader-lane issue loop: issueOnce() until recover() says Done.
     * Runs entirely in the leader's serial section, so no barrier in
     * the granularity wrappers is ever re-crossed.
     */
    sim::Task<std::int64_t> issueAndWait(gpu::WavefrontCtx &ctx,
                                         Invocation inv,
                                         int sysno,
                                         osk::SyscallArgs args);

    /**
     * One issue round on the wave's first slot: claim, populate,
     * publish, submit, and (for blocking calls) wait and consume the
     * result.
     */
    sim::Task<std::int64_t> issueOnce(gpu::WavefrontCtx &ctx,
                                      Invocation inv,
                                      int sysno,
                                      const osk::SyscallArgs &args);

    /**
     * Client cost model (DESIGN.md §13) of a slot claim or publish:
     * @p atomic for a slot-mode round's lead lane, else populate cost.
     */
    Tick slotOpCost(Tick atomic, bool lead = true) const;

    /** Claim the slot, retrying while it is busy. */
    sim::Task<> claimSlot(gpu::WavefrontCtx &ctx,
                          std::uint32_t item_slot);

    /** Publish a claimed, populated slot (untimed; caller charges). */
    void publish(gpu::WavefrontCtx &ctx, Invocation inv, int sysno,
                 const osk::SyscallArgs &args, std::uint32_t item_slot);

    /**
     * Hand the published slots (@p first_slot + each lane in
     * @p lane_mask) to the host: ringSubmit in ring mode, else one
     * s_sendmsg, sent at the call (the returned task is then empty).
     */
    sim::Task<> submit(gpu::WavefrontCtx &ctx, std::uint32_t first_slot,
                       std::uint64_t lane_mask);

    /**
     * Ring-mode batch submission (DESIGN.md §13): claim a range of SQ
     * entries on the wave's shard, write the published slot indices,
     * publish in claim order, and ring ONE doorbell for the batch.
     * Batches larger than the SQ capacity split into chunks.
     */
    sim::Task<> ringSubmit(gpu::WavefrontCtx &ctx,
                           std::uint32_t first_slot,
                           std::uint64_t lane_mask);

    /** Poll (or halt) until every listed slot finishes; consume all. */
    sim::Task<> waitSlots(gpu::WavefrontCtx &ctx, Invocation inv,
                          std::uint32_t first_slot,
                          std::uint64_t lane_mask,
                          std::function<void(std::uint32_t,
                                             std::int64_t)> on_result);

    /** True when the sanitizer is attached and enabled. */
    bool sanOn() const;
    /** Name @p ctx's wavefront as the gsan actor for slot ops. */
    void sanActor(gpu::WavefrontCtx &ctx);

    gpu::GpuDevice &gpu_;
    SyscallArea &area_;
    GenesysParams params_;
    gsan::Sanitizer *gsan_ = nullptr;
    std::uint64_t issued_ = 0;
    std::uint64_t retries_ = 0;
    std::uint64_t shortTransfers_ = 0;
    std::uint64_t ringFullRetries_ = 0;
};

} // namespace genesys::core

#endif // GENESYS_CORE_CLIENT_HH
