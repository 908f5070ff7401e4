/**
 * @file
 * Tests for the extension surface: the sysfs coalescing controls
 * (Section VI) and the forward-looking GPU signal delivery built on
 * dynamic kernel launch + thread recombination (Section IV).
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <set>
#include <string>

#include "core/gpu_signals.hh"
#include "core/system.hh"
#include "osk/file.hh"
#include "osk/sysfs.hh"

namespace genesys::core
{
namespace
{

// ------------------------------------------------------------- sysfs

class SysfsTest : public ::testing::Test
{
  protected:
    std::int64_t
    sys(int num, const osk::SyscallArgs &args)
    {
        std::int64_t ret = -1;
        sys_.sim().spawn([](System &s, int n, osk::SyscallArgs a,
                            std::int64_t &out) -> sim::Task<> {
            out = co_await s.kernel().doSyscall(s.process(), n, a);
        }(sys_, num, args, ret));
        sys_.run();
        return ret;
    }

    System sys_;
};

TEST_F(SysfsTest, CoalesceWindowReadableAndWritable)
{
    const auto fd = sys(osk::sysno::open,
                        osk::makeArgs("/sys/genesys/coalesce_window_ns",
                                      osk::O_RDWR));
    ASSERT_GE(fd, 0);
    char buf[32] = {};
    ASSERT_GT(sys(osk::sysno::read, osk::makeArgs(fd, buf, 31)), 0);
    EXPECT_EQ(std::string(buf), "0\n"); // coalescing off by default

    EXPECT_EQ(sys(osk::sysno::write, osk::makeArgs(fd, "25000\n", 6)),
              6);
    EXPECT_EQ(sys_.host().coalesceWindow(), 25000u);
}

TEST_F(SysfsTest, CoalesceBatchValidatesWrites)
{
    const auto fd = sys(osk::sysno::open,
                        osk::makeArgs("/sys/genesys/coalesce_max_batch",
                                      osk::O_RDWR));
    ASSERT_GE(fd, 0);
    EXPECT_EQ(sys(osk::sysno::write, osk::makeArgs(fd, "8\n", 2)), 2);
    EXPECT_EQ(sys_.host().coalesceMaxBatch(), 8u);
    // Zero batch and garbage are rejected (0 bytes written).
    EXPECT_EQ(sys(osk::sysno::write, osk::makeArgs(fd, "0\n", 2)), 0);
    EXPECT_EQ(sys_.host().coalesceMaxBatch(), 8u);
    EXPECT_EQ(sys(osk::sysno::write, osk::makeArgs(fd, "abc", 3)), 0);
    EXPECT_EQ(sys_.host().coalesceMaxBatch(), 8u);
    // So are values past the knob's 32-bit range (2^32 would read back
    // as 0) and past 64 bits (2^64 + 1 must not wrap around to 1).
    EXPECT_EQ(sys(osk::sysno::write, osk::makeArgs(fd, "4294967296", 10)),
              0);
    EXPECT_EQ(sys_.host().coalesceMaxBatch(), 8u);
    EXPECT_EQ(sys(osk::sysno::write,
                  osk::makeArgs(fd, "18446744073709551617", 20)),
              0);
    EXPECT_EQ(sys_.host().coalesceMaxBatch(), 8u);
}

TEST_F(SysfsTest, SysfsControlsActuallyCoalesce)
{
    // Turn coalescing on through the filesystem, then observe batched
    // interrupt handling — the full Section VI control loop.
    const auto wfd = sys(osk::sysno::open,
                         osk::makeArgs("/sys/genesys/coalesce_window_ns",
                                       osk::O_RDWR));
    const auto bfd = sys(osk::sysno::open,
                         osk::makeArgs("/sys/genesys/coalesce_max_batch",
                                       osk::O_RDWR));
    ASSERT_EQ(sys(osk::sysno::write, osk::makeArgs(wfd, "50000", 5)),
              5);
    ASSERT_EQ(sys(osk::sysno::write, osk::makeArgs(bfd, "8", 1)), 1);

    sys_.kernel().vfs().createFile("/co")->setSynthetic(1 << 20);
    gpu::KernelLaunch k;
    k.workItems = 16 * 64;
    k.wgSize = 64;
    k.program = [this](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        Invocation wg;
        wg.ordering = Ordering::Relaxed;
        const auto fd =
            co_await sys_.gpuSys().open(ctx, wg, "/co", osk::O_RDONLY);
        co_await sys_.gpuSys().pread(ctx, wg, static_cast<int>(fd),
                                     nullptr, 1024,
                                     ctx.workgroupId() * 1024);
    };
    sys_.launchGpuAndDrain(std::move(k));
    sys_.run();
    EXPECT_GT(sys_.host().interrupts(), sys_.host().batches());
    EXPECT_GT(sys_.host().batchSizes().mean(), 1.0);
}

// -------------------------------------------------------- GPU signals

TEST(GpuSignals, SigactionValidation)
{
    sim::Sim sim;
    gpu::GpuConfig cfg;
    gpu::GpuDevice gpu(sim, cfg);
    GpuSignalDelivery sig(sim, gpu);
    EXPECT_EQ(sig.sigaction(0, nullptr), -EINVAL);
    EXPECT_EQ(sig.sigaction(
                  70, [](gpu::WavefrontCtx &,
                         std::span<const osk::SigInfo>) -> sim::Task<> {
                      co_return;
                  }),
              -EINVAL);
    EXPECT_EQ(sig.sigaction(
                  osk::SIGRTMIN_,
                  [](gpu::WavefrontCtx &,
                     std::span<const osk::SigInfo>) -> sim::Task<> {
                      co_return;
                  }),
              0);
    EXPECT_TRUE(sig.removeHandler(osk::SIGRTMIN_));
    EXPECT_FALSE(sig.removeHandler(osk::SIGRTMIN_));
}

TEST(GpuSignals, DeliverWithoutHandlerFails)
{
    sim::Sim sim;
    gpu::GpuConfig cfg;
    gpu::GpuDevice gpu(sim, cfg);
    GpuSignalDelivery sig(sim, gpu);
    osk::SigInfo info;
    info.signo = osk::SIGRTMIN_;
    EXPECT_EQ(sig.deliver(info), -EINVAL);
}

TEST(GpuSignals, HandlerRunsOncePerSignalValue)
{
    sim::Sim sim;
    gpu::GpuConfig cfg;
    cfg.kernelLaunchLatency = ticks::us(15);
    gpu::GpuDevice gpu(sim, cfg);
    GpuSignalDelivery sig(sim, gpu);

    std::multiset<std::int64_t> handled;
    ASSERT_EQ(sig.sigaction(
                  osk::SIGRTMIN_,
                  [&handled](gpu::WavefrontCtx &ctx,
                             std::span<const osk::SigInfo> infos)
                      -> sim::Task<> {
                      for (std::uint32_t lane = 0;
                           lane < infos.size(); ++lane) {
                          handled.insert(infos[lane].value);
                      }
                      co_await ctx.compute(100);
                  }),
              0);

    for (int i = 0; i < 5; ++i) {
        osk::SigInfo info;
        info.signo = osk::SIGRTMIN_;
        info.value = i;
        EXPECT_EQ(sig.deliver(info), 0);
    }
    sim.run();
    EXPECT_EQ(handled.size(), 5u);
    EXPECT_EQ(sig.delivered(), 5u);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(handled.count(i), 1u);
}

TEST(GpuSignals, RecombinationBatchesIntoOneWave)
{
    sim::Sim sim;
    gpu::GpuConfig cfg;
    gpu::GpuDevice gpu(sim, cfg);
    GpuSignalParams params;
    params.recombineWindow = ticks::us(10);
    GpuSignalDelivery sig(sim, gpu, params);
    int waves = 0;
    sig.sigaction(osk::SIGRTMIN_,
                  [&waves](gpu::WavefrontCtx &,
                           std::span<const osk::SigInfo>)
                      -> sim::Task<> {
                      ++waves;
                      co_return;
                  });
    // 5 deliveries inside one window: one handler wavefront.
    for (int i = 0; i < 5; ++i) {
        osk::SigInfo info;
        info.signo = osk::SIGRTMIN_;
        sig.deliver(info);
    }
    sim.run();
    EXPECT_EQ(waves, 1);
    EXPECT_EQ(sig.handlerWaves(), 1u);
    EXPECT_DOUBLE_EQ(sig.recombination().mean(), 5.0);
}

TEST(GpuSignals, FullWaveFlushesImmediately)
{
    sim::Sim sim;
    gpu::GpuConfig cfg;
    gpu::GpuDevice gpu(sim, cfg);
    GpuSignalDelivery sig(sim, gpu);
    int lanes_seen = 0;
    sig.sigaction(osk::SIGRTMIN_,
                  [&lanes_seen](gpu::WavefrontCtx &,
                                std::span<const osk::SigInfo> infos)
                      -> sim::Task<> {
                      lanes_seen += static_cast<int>(infos.size());
                      co_return;
                  });
    // 130 deliveries = 2 full waves (64) + 2 stragglers.
    for (int i = 0; i < 130; ++i) {
        osk::SigInfo info;
        info.signo = osk::SIGRTMIN_;
        sig.deliver(info);
    }
    sim.run();
    EXPECT_EQ(lanes_seen, 130);
    EXPECT_EQ(sig.handlerWaves(), 3u);
    EXPECT_EQ(sig.recombination().max(), 64.0);
}

TEST(GpuSignals, DynamicLaunchFasterThanHostLaunch)
{
    // The point of the extension: handler startup skips the host
    // dispatch path. Compare time-to-handler for one delivery vs a
    // host-launched kernel.
    sim::Sim sim;
    gpu::GpuConfig cfg;
    cfg.kernelLaunchLatency = ticks::us(15);
    gpu::GpuDevice gpu(sim, cfg);
    GpuSignalParams params;
    params.recombineWindow = 0;
    params.dynamicLaunchLatency = ticks::us(3);
    GpuSignalDelivery sig(sim, gpu, params);
    Tick handler_at = 0;
    sig.sigaction(osk::SIGRTMIN_,
                  [&handler_at](gpu::WavefrontCtx &ctx,
                                std::span<const osk::SigInfo>)
                      -> sim::Task<> {
                      handler_at = ctx.sim().now();
                      co_return;
                  });
    osk::SigInfo info;
    info.signo = osk::SIGRTMIN_;
    sig.deliver(info);
    sim.run();
    EXPECT_GT(handler_at, 0u);
    EXPECT_LT(handler_at, ticks::us(15)); // beats a host launch
}

// ------------------------------------------------- dynamic launch

TEST(DynamicLaunch, ParentSpawnsChildrenWithoutCpuRoundTrip)
{
    sim::Sim sim;
    gpu::GpuConfig cfg;
    cfg.kernelLaunchLatency = ticks::us(15);
    cfg.dynamicLaunchLatency = ticks::us(3);
    gpu::GpuDevice gpu(sim, cfg);

    int child_waves = 0;
    Tick first_child_at = 0;
    gpu::KernelLaunch parent;
    parent.workItems = 64;
    parent.wgSize = 64;
    parent.program = [&](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        for (int c = 0; c < 3; ++c) {
            gpu::KernelLaunch child;
            child.workItems = 2 * 64;
            child.wgSize = 64;
            child.program = [&](gpu::WavefrontCtx &cctx)
                -> sim::Task<> {
                if (first_child_at == 0)
                    first_child_at = cctx.sim().now();
                ++child_waves;
                co_await cctx.compute(100);
            };
            co_await ctx.launchKernel(std::move(child));
        }
    };
    sim.spawn(gpu.launch(std::move(parent)));
    sim.run();
    EXPECT_EQ(child_waves, 6);
    EXPECT_EQ(gpu.launchedKernels(), 4u);
    // First child starts ~3us after the parent begins (15us host
    // dispatch), not 15+15.
    EXPECT_LT(first_child_at, ticks::us(15) + ticks::us(5));
    EXPECT_GE(first_child_at, ticks::us(15) + ticks::us(3));
}

TEST(DynamicLaunch, ChildrenShareResidencyWithParent)
{
    sim::Sim sim;
    gpu::GpuConfig cfg;
    cfg.numCus = 1;
    cfg.maxWavesPerCu = 4;
    cfg.maxWorkGroupsPerCu = 4;
    cfg.kernelLaunchLatency = 0;
    gpu::GpuDevice gpu(sim, cfg);
    std::uint32_t peak = 0;
    gpu::KernelLaunch parent;
    parent.workItems = 64;
    parent.wgSize = 64;
    parent.program = [&](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        gpu::KernelLaunch child;
        child.workItems = 8 * 64; // more groups than free residency
        child.wgSize = 64;
        child.program = [&](gpu::WavefrontCtx &cctx) -> sim::Task<> {
            peak = std::max(peak, gpu.residentWorkGroups());
            co_await cctx.compute(1000);
        };
        co_await ctx.launchKernel(std::move(child));
    };
    sim.spawn(gpu.launch(std::move(parent)));
    sim.run();
    // Parent holds one of the 4 WG slots while its children run.
    EXPECT_EQ(peak, 4u);
    EXPECT_EQ(gpu.residentWorkGroups(), 0u);
}

} // namespace
} // namespace genesys::core
