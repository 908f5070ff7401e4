/**
 * @file
 * Experimental extension: delivering signals TO the GPU.
 *
 * Table II classifies sigaction as "needs GPU hardware changes":
 * POSIX signal delivery must pause a target thread and run a handler,
 * but GPU work-items have no kernel representation and no individually
 * settable program counters. Section IV sketches the escape hatch the
 * paper attributes to future hardware: dynamic kernel launch [46]
 * (on-demand spawning of kernels on the GPU without CPU intervention)
 * plus *thread recombination* — "assembling multiple signal handlers
 * into a single warp" (akin to divergence-recombination work [42]).
 *
 * This module prototypes exactly that: handlers are registered per
 * signal number (the sigaction analogue, with the mask associated
 * with the GPU context rather than a thread); delivering a signal
 * enqueues the handler through a device-side launch port; deliveries
 * arriving within a short recombination window share one wavefront,
 * one signal per lane.
 */

#ifndef GENESYS_CORE_GPU_SIGNALS_HH
#define GENESYS_CORE_GPU_SIGNALS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "gpu/gpu.hh"
#include "osk/signals.hh"
#include "support/stats.hh"

namespace genesys::core
{

/**
 * A GPU-resident signal handler: runs as one wavefront; lane i
 * handles infos[i]. Lanes beyond infos.size() are inactive.
 */
using GpuSignalHandler = std::function<sim::Task<>(
    gpu::WavefrontCtx &, std::span<const osk::SigInfo>)>;

struct GpuSignalParams
{
    /// Device-side dynamic launch cost — no CPU round trip, far below
    /// the host kernelLaunchLatency.
    Tick dynamicLaunchLatency = ticks::us(3);
    /// Deliveries within this window recombine into one wavefront.
    Tick recombineWindow = ticks::us(10);
};

class GpuSignalDelivery
{
  public:
    GpuSignalDelivery(sim::Sim &sim, gpu::GpuDevice &gpu,
                      const GpuSignalParams &params = {})
        : sim_(sim), gpu_(gpu), params_(params)
    {}

    /**
     * sigaction analogue: install @p handler for @p signo on the GPU
     * context. @return 0 or -EINVAL for a bad signal number.
     */
    int sigaction(int signo, GpuSignalHandler handler);

    /** Remove the handler. @return true if one was installed. */
    bool removeHandler(int signo);

    /**
     * Deliver @p info to the GPU context (the CPU-side kill path).
     * @return 0, or -EINVAL if no handler is installed.
     */
    int deliver(const osk::SigInfo &info);

    // --- stats ----------------------------------------------------
    std::uint64_t delivered() const { return delivered_; }
    std::uint64_t handlerWaves() const { return handlerWaves_; }
    const stats::Distribution &recombination() const
    {
        return recombination_;
    }

  private:
    struct PendingBatch
    {
        std::vector<osk::SigInfo> infos;
        bool timerArmed = false;
    };

    void flush(int signo);
    sim::Task<> launchHandlerWave(int signo,
                                  std::vector<osk::SigInfo> infos);

    sim::Sim &sim_;
    gpu::GpuDevice &gpu_;
    GpuSignalParams params_;
    std::map<int, GpuSignalHandler> handlers_;
    std::map<int, PendingBatch> pending_;
    std::uint64_t delivered_ = 0;
    std::uint64_t handlerWaves_ = 0;
    stats::Distribution recombination_;
};

} // namespace genesys::core

#endif // GENESYS_CORE_GPU_SIGNALS_HH
