/**
 * @file
 * Whole-platform façade: one object that wires the simulated machine
 * together the way Table III's testbed was wired — CPU cores + OS +
 * integrated GPU sharing memory controllers — with GENESYS installed.
 *
 * This is the entry point examples, tests, and the benchmark harness
 * use:
 *
 *   core::System sys;
 *   sys.kernel().vfs().createFile("/data/in")->setData(...);
 *   sys.launchGpu({.workItems = 4096, .wgSize = 256,
 *                  .program = myProgram});
 *   sys.run();
 */

#ifndef GENESYS_CORE_SYSTEM_HH
#define GENESYS_CORE_SYSTEM_HH

#include <cstdint>
#include <memory>

#include "core/client.hh"
#include "core/host.hh"
#include "core/params.hh"
#include "core/slot.hh"
#include "gpu/gpu.hh"
#include "mem/mem_bus.hh"
#include "osk/process.hh"
#include "sim/sim.hh"
#include "support/gsan.hh"

namespace genesys::core
{

/// The component pointers the counter table reads (system.cc).
struct SystemParts;

struct SystemConfig
{
    std::uint64_t seed = 1;
    gpu::GpuConfig gpu;
    osk::KernelConfig kernel;
    mem::MemBusParams memBus;
    GenesysParams genesys;
};

class System
{
  public:
    explicit System(const SystemConfig &config = {});
    /** Destroys still-suspended root tasks before the components
     *  their frames reference (kernel, GPU, host) go away. */
    ~System();
    System(System &&);
    System &operator=(System &&);

    sim::Sim &sim() { return *sim_; }
    osk::Kernel &kernel() { return *kernel_; }
    osk::Process &process() { return *proc_; }
    gpu::GpuDevice &gpu() { return *gpu_; }
    mem::MemBus &memBus() { return *memBus_; }
    SyscallArea &syscallArea() { return *area_; }
    GenesysHost &host() { return *host_; }
    GpuSyscalls &gpuSys() { return *client_; }
    const SystemConfig &config() const { return config_; }

    /**
     * The happens-before sanitizer, wired into every slot, the GPU
     * device, the client, and the host. Compiled in always; enable at
     * runtime via gsan().setEnabled(true), the GENESYS_GSAN
     * environment variable, or `echo 1 > /sys/genesys/gsan/enabled`
     * from simulated code.
     */
    gsan::Sanitizer &gsan() { return *gsan_; }
    const gsan::Sanitizer &gsan() const { return *gsan_; }

    /** Launch a GPU kernel (non-blocking; completes as sim runs). */
    void
    launchGpu(gpu::KernelLaunch launch)
    {
        sim_->spawn(gpu_->launch(std::move(launch)));
    }

    /** Launch and also drain in-flight GPU syscalls afterwards. */
    void
    launchGpuAndDrain(gpu::KernelLaunch launch)
    {
        sim_->spawn(launchDrainTask(std::move(launch)));
    }

    /** Run the simulation to quiescence (or @p limit). */
    Tick run(Tick limit = kMaxTick, std::uint64_t max_events = 0)
    {
        return sim_->run(limit, max_events);
    }

    /** One-line platform description (Table III analogue). */
    std::string platformString() const;

    /**
     * End-of-run statistics report across every component (gem5-style
     * stats dump): GPU dispatch counters, GENESYS host counters, L2
     * and memory-bus traffic, CPU utilization. One line per named row
     * of the counter table in system.cc, which also makes every
     * /sys/genesys file but the fault knobs.
     */
    std::string statsReport() const;

  private:
    sim::Task<> launchDrainTask(gpu::KernelLaunch launch);

    SystemConfig config_;
    std::unique_ptr<sim::Sim> sim_;
    std::unique_ptr<mem::MemBus> memBus_;
    std::unique_ptr<osk::Kernel> kernel_;
    osk::Process *proc_;
    std::unique_ptr<gpu::GpuDevice> gpu_;
    std::unique_ptr<SyscallArea> area_;
    std::unique_ptr<GenesysHost> host_;
    std::unique_ptr<GpuSyscalls> client_;
    std::unique_ptr<gsan::Sanitizer> gsan_;
    /// What the counter table's files and the epoll wake observer read.
    std::unique_ptr<SystemParts> parts_;
};

} // namespace genesys::core

#endif // GENESYS_CORE_SYSTEM_HH
