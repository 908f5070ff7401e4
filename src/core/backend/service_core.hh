/**
 * @file
 * ServiceCore: the slot scanner + syscall executor shared by every
 * ServiceBackend.
 *
 * Before the backend split, the interrupt path and the polling daemon
 * each carried their own near-identical slot-scan loop in
 * GenesysHost — and they drifted (the latched-hwWaveSlot fix had to
 * land twice). take() then serve() is now the single per-slot service
 * step; the backends differ only in the ScanPolicy they pass and in
 * how they discover slots to scan.
 */

#ifndef GENESYS_CORE_BACKEND_SERVICE_CORE_HH
#define GENESYS_CORE_BACKEND_SERVICE_CORE_HH

#include <cstdint>
#include <optional>

#include "core/params.hh"
#include "core/slot.hh"
#include "gpu/gpu.hh"
#include "osk/process.hh"
#include "support/gsan.hh"

namespace genesys::core
{

class ServiceCore
{
  public:
    /**
     * How a backend's scan loop services each slot. The interrupt
     * path's workers release their CPU core around potentially
     * indefinitely-blocking calls and trace per call; the daemon pays
     * the user/kernel crossing (syscallBase) that the interrupt path's
     * in-kernel worker does not.
     */
    struct ScanPolicy
    {
        bool chargeSyscallBase = false;
        bool releaseCoreOnBlocking = true;
        bool tracePerCall = true;
    };

    ServiceCore(osk::Kernel &kernel, gpu::GpuDevice &gpu,
                SyscallArea &area, osk::Process &proc,
                const GenesysParams &params)
        : kernel_(kernel), gpu_(gpu), area_(area), proc_(proc),
          params_(params)
    {}

    /**
     * First half of the per-slot service step: take @p slot from
     * Ready to Processing on behalf of @p servicer, the gsan thread
     * of the servicing CPU context (kNoThread when the sanitizer is
     * off). Synchronous and inline, so a scan over empty slots costs
     * no coroutine frame and no call; every visit still records the
     * slot's gmc footprint touch.
     * @return true when the slot was Ready: the caller must serve() it.
     */
    bool
    take(SyscallSlot &slot, std::uint32_t servicer)
    {
        if (sanitizing(servicer))
            gsan_->setActor(servicer);
        return slot.beginProcessing();
    }

    /**
     * Second half: service a slot take() returned true for — execute
     * the call in the launching process's context, deposit the
     * result, and wake a halt-resume requester. @p hw_wave_slot /
     * @p lane only label the trace line.
     */
    sim::Task<> serve(SyscallSlot &slot, std::uint32_t servicer,
                      std::uint32_t hw_wave_slot, std::uint32_t lane,
                      ScanPolicy policy);

    /**
     * Interrupt-path scan: process every ready slot of the signalled
     * wavefront. Emits the gsan interrupt-receive edge first.
     * @return the number of slots handled.
     */
    sim::Task<int> serviceWaveSlots(std::uint32_t hw_wave_slot,
                                    std::uint32_t servicer);

    /**
     * Ring-mode bulk consume (DESIGN.md §13): drain @p shard's SQ —
     * for each published entry, acquire-pop it, service the named
     * slot, and post a completion event on the shard CQ for blocking
     * calls. Shared by the interrupt backend's batch task and the
     * polling daemon's polled-completion sweep; callers guarantee one
     * consumer per shard at a time. @return entries handled.
     */
    sim::Task<int> serviceRing(std::uint32_t shard,
                               std::uint32_t servicer,
                               ScanPolicy policy);

    /**
     * Acquire-pop the oldest published SQ entry of @p shard, or
     * nullopt when the SQ is empty. The pop is attributed to
     * @p servicer; callers guarantee one consumer per shard at a
     * time. Building block for backends that separate consuming the
     * SQ from servicing the entries (the interrupt backend pops in
     * bulk, then fans the slots out across workqueue workers).
     */
    std::optional<std::uint32_t>
    tryPopRingEntry(std::uint32_t shard, std::uint32_t servicer);

    /**
     * Service one already-popped SQ entry: take and serve the named
     * slot and post a CQ completion event for blocking calls
     * (strictly after the slot's complete() release — the §13
     * contract). @return 1 when the slot was handled.
     */
    sim::Task<int> serviceRingEntry(std::uint32_t shard,
                                    std::uint32_t item_slot,
                                    std::uint32_t servicer,
                                    ScanPolicy policy);

    /** Completion events posted to CQs (ring mode). */
    std::uint64_t cqPosted() const { return cqPosted_; }

    /**
     * Can this call block its kernel thread indefinitely (not just
     * for a modeled cost)? Such calls release their CPU core while
     * blocked, and ring-mode consumers punt them to their own
     * workqueue task instead of servicing them inline — one parked
     * epoll_wait must not stall a shard's whole consume pipeline.
     */
    static bool mayBlockIndefinitely(int sysno);

    /**
     * Fd-aware refinement of mayBlockIndefinitely() for @p slot's
     * call: only sockets, pipes, and epoll instances can actually
     * park the servicing thread — a read(2) of a regular file is
     * bounded IO. The ring dispatcher uses this to punt real parkers
     * to their own task without paying a task per file read, and
     * serve() to decide which calls release their core.
     */
    bool mayParkIndefinitely(const SyscallSlot &slot) const;

    // --- stats ------------------------------------------------------
    std::uint64_t processed() const { return processed_; }
    /** Fault recoveries performed for non-blocking slots. */
    std::uint64_t hostRestarts() const { return hostRestarts_; }

    void setSanitizer(gsan::Sanitizer *gsan) { gsan_ = gsan; }
    gsan::Sanitizer *sanitizer() const { return gsan_; }

    osk::Kernel &kernel() { return kernel_; }
    SyscallArea &area() { return area_; }

  private:
    /** Is gsan on for hooks attributed to @p servicer? */
    bool
    sanitizing(std::uint32_t servicer) const
    {
        return gsan_ != nullptr && gsan_->enabled() &&
               servicer != gsan::Sanitizer::kNoThread;
    }

    /**
     * Execute @p slot's call through the fault-injectable dispatch
     * path. Blocking slots get the raw (possibly faulted) result —
     * the GPU requester owns recovery. For non-blocking slots nobody
     * reads the result, so the host itself restarts transient faults
     * and continues short transfers; otherwise an injected EINTR
     * would silently swallow a fire-and-forget call (e.g. a dropped
     * rt_sigqueueinfo in the signal-search workload).
     */
    sim::Task<std::int64_t> executeSlotCall(const SyscallSlot &slot);

    /**
     * Post a completion event on @p shard's CQ. The CQ is lossy by
     * design: on overflow the oldest event is reclaimed, because the
     * completion signal waiters consume is the monotone tail counter,
     * not the entry payloads (DESIGN.md §13).
     */
    void postCompletion(std::uint32_t shard, std::uint32_t item_slot);

    osk::Kernel &kernel_;
    gpu::GpuDevice &gpu_;
    SyscallArea &area_;
    osk::Process &proc_;
    const GenesysParams &params_;
    gsan::Sanitizer *gsan_ = nullptr;

    std::uint64_t processed_ = 0;
    std::uint64_t hostRestarts_ = 0;
    std::uint64_t cqPosted_ = 0;
};

} // namespace genesys::core

#endif // GENESYS_CORE_BACKEND_SERVICE_CORE_HH
