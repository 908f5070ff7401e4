/**
 * @file
 * CPU-side GENESYS runtime façade.
 *
 * GenesysHost keeps the historical surface (interrupt entry, drain,
 * coalescing knobs, daemon control, stats) but the service path itself
 * is layered (DESIGN.md §10): a ServiceBackend — InterruptBackend for
 * the paper's interrupt + workqueue pipeline, PollingDaemonBackend for
 * the prior-work scanning daemon — services slots through one shared
 * ServiceCore over the sharded SyscallArea. The façade only selects
 * the active backend and aggregates stats; it owns no scan loop and
 * no file: its counters and the coalescing knobs reach /sys/genesys
 * as rows of the counter table in core/system.cc.
 */

#ifndef GENESYS_CORE_HOST_HH
#define GENESYS_CORE_HOST_HH

#include <cstdint>
#include <memory>

#include "core/backend/interrupt_backend.hh"
#include "core/backend/polling_backend.hh"
#include "core/backend/service_core.hh"
#include "core/params.hh"
#include "core/slot.hh"
#include "gpu/gpu.hh"
#include "osk/process.hh"
#include "support/stats.hh"

namespace genesys::core
{

class GenesysHost
{
  public:
    GenesysHost(osk::Kernel &kernel, gpu::GpuDevice &gpu,
                SyscallArea &area, osk::Process &proc,
                const GenesysParams &params);

    /**
     * Runtime-configurable coalescing, mirroring the paper's sysfs
     * interface: @p window is how long the interrupt handler waits for
     * more requests; @p max_batch bounds a coalesced bundle.
     */
    void setCoalescing(Tick window, std::uint32_t max_batch);

    Tick coalesceWindow() const { return params_.coalesceWindow; }
    std::uint32_t coalesceMaxBatch() const
    {
        return params_.coalesceMaxBatch;
    }

    /** The host's live parameter block, shared by reference with the
     *  backends: knobs written through sysfs (coalescing, ring
     *  consumer lingering) take effect on the next arrival. */
    GenesysParams &params() { return params_; }

    /** GPU interrupt entry point (registered as the device sink),
     *  routed to the active ServiceBackend. */
    void onGpuInterrupt(std::uint32_t cu, std::uint32_t hw_wave_slot);

    /**
     * Block until every in-flight GPU system call has completed — the
     * paper's answer to the asynchronous-completion hazard of
     * Section IX (a non-blocking syscall may outlive the GPU kernel
     * and even the launching process). After stopDaemon(), this also
     * joins the daemon scan loops, so no scan coroutine outlives the
     * drain.
     */
    sim::Task<> drain();

    /**
     * Switch the active backend to the prior-work user-mode service
     * daemon: one pinned scanning thread per syscall-area shard, each
     * sweeping its slot range every @p scan_interval.
     */
    void startPollingDaemon(Tick scan_interval);

    /**
     * Ask the daemon backend to stop and reroute doorbells to the
     * interrupt backend. The stop drains: every daemon sweeps its
     * shard once more (requests racing the stop are serviced, never
     * stranded) and exits; drain() — or the next sim quiescence —
     * joins the loops. daemonScansLive() reports loops not yet exited.
     */
    void stopDaemon();
    bool daemonMode() const
    {
        return daemon_ != nullptr && daemon_->running();
    }
    /** Daemon scan loops that have not exited yet. */
    std::uint32_t daemonScansLive() const
    {
        return daemon_ != nullptr ? daemon_->liveLoops() : 0;
    }

    // --- stats -------------------------------------------------------
    std::uint64_t interrupts() const { return interrupt_->interrupts(); }
    /** Doorbells routed to @p shard's service path. */
    std::uint64_t interruptsOnShard(std::uint32_t shard) const
    {
        return interrupt_->interruptsOnShard(shard);
    }
    /** Interrupt batches dispatched plus daemon sweeps performed. */
    std::uint64_t batches() const
    {
        return interrupt_->batches() +
               (daemon_ != nullptr ? daemon_->sweeps() : 0);
    }
    std::uint64_t processedSyscalls() const { return core_->processed(); }
    const stats::Distribution &batchSizes() const
    {
        return interrupt_->batchSizes();
    }
    std::uint64_t inFlight() const { return interrupt_->inFlight(); }
    /** Fault recoveries the host performed for non-blocking slots. */
    std::uint64_t hostRestarts() const { return core_->hostRestarts(); }
    /** Ring mode: doorbells elided by the pending-consumer filter. */
    std::uint64_t ringDoorbellsSuppressed() const
    {
        return interrupt_->ringDoorbellsSuppressed();
    }
    /** Ring mode: completion events posted to shard CQs. */
    std::uint64_t ringCqPosted() const { return core_->cqPosted(); }

    /** The shared slot scanner/executor (backend plumbing). */
    ServiceCore &serviceCore() { return *core_; }
    /** The currently active service backend. */
    ServiceBackend &activeBackend() { return *active_; }

    /** Attach the happens-before sanitizer (may be null). */
    void setSanitizer(gsan::Sanitizer *gsan)
    {
        core_->setSanitizer(gsan);
    }

  private:
    GenesysParams params_;

    std::unique_ptr<ServiceCore> core_;
    std::unique_ptr<InterruptBackend> interrupt_;
    std::unique_ptr<PollingDaemonBackend> daemon_;
    ServiceBackend *active_ = nullptr;
};

} // namespace genesys::core

#endif // GENESYS_CORE_HOST_HH
