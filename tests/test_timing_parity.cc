/**
 * @file
 * Timing-parity regression tests for the service path.
 *
 * Each scenario drives the full GPU->slot->service->wake pipeline in a
 * shape borrowed from the fig07-fig16 benches (granularity sweep,
 * ordering/blocking/wait-mode matrix, coalescing, residency pressure,
 * polling daemon, grep) and asserts the *exact* simulated completion
 * tick against a golden value captured from the pre-refactor host.
 *
 * The golden numbers pin down the contract of the backend refactor:
 * with the default configuration (areaShards=1, default workers,
 * shard-affinity steering) the layered ServiceBackend/SlotScanner/
 * sharded-WorkQueue architecture must be bit-identical in modeled time
 * to the monolithic GenesysHost it replaced. Any intentional timing
 * change must update these constants in the same commit and say why.
 *
 * Set GENESYS_PARITY_CAPTURE=1 to print actual values instead of
 * asserting (used to regenerate the table).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/system.hh"
#include "workloads/grep.hh"

namespace genesys::core
{
namespace
{

bool
captureMode()
{
    const char *env = std::getenv("GENESYS_PARITY_CAPTURE");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/**
 * EXPECT the golden tick (or counter), or print the actual in capture
 * mode.
 */
void
checkTick(const char *name, std::uint64_t actual, std::uint64_t golden)
{
    if (captureMode()) {
        std::printf("PARITY %s = %llu\n", name,
                    static_cast<unsigned long long>(actual));
        return;
    }
    EXPECT_EQ(actual, golden) << name;
}

SystemConfig
smallConfig()
{
    SystemConfig cfg;
    cfg.gpu.numCus = 2;
    cfg.gpu.maxWavesPerCu = 8;
    cfg.gpu.maxWorkGroupsPerCu = 4;
    cfg.gpu.kernelLaunchLatency = ticks::us(5);
    return cfg;
}

Invocation
inv(Granularity g, Ordering o, Blocking b,
    WaitMode w = WaitMode::Polling)
{
    Invocation i;
    i.granularity = g;
    i.ordering = o;
    i.blocking = b;
    i.waitMode = w;
    return i;
}

/** smallConfig() with SQ/CQ rings, one syscall-area shard per CU. */
SystemConfig
ringConfig()
{
    SystemConfig cfg = smallConfig();
    cfg.genesys.useRings = true;
    cfg.genesys.areaShards = 2;
    return cfg;
}

struct WorkItemRun
{
    Tick end = 0;       ///< final tick, host work included
    Tick wavesDone = 0; ///< latest tick a wave left its round
};

/**
 * @p groups one-wave work-groups: a work-group open, then one
 * work-item round of 1-byte pwrites (lane L of group G writes offset
 * 64G+L).
 */
WorkItemRun
runWorkItemPwrites(const SystemConfig &cfg, Invocation wi,
                   std::uint32_t groups = 1)
{
    System sys(cfg);
    sys.kernel().vfs().createFile("/wi");
    static char lane_bytes[64];
    for (int i = 0; i < 64; ++i)
        lane_bytes[i] = static_cast<char>('A' + (i % 26));
    WorkItemRun r;
    gpu::KernelLaunch k;
    k.workItems = groups * 64;
    k.wgSize = 64;
    k.program = [&sys, &r, wi](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        auto i = inv(Granularity::WorkGroup, Ordering::Strong,
                     Blocking::Blocking);
        const auto fd = co_await sys.gpuSys().open(ctx, i, "/wi", 1);
        const std::uint32_t base = 64 * ctx.workgroupId();
        co_await sys.gpuSys().invokeWorkItems(
            ctx, wi, osk::sysno::pwrite64,
            [fd, base](std::uint32_t lane) {
                return std::optional(
                    osk::makeArgs(static_cast<int>(fd),
                                  &lane_bytes[lane], 1, base + lane));
            });
        r.wavesDone = std::max(r.wavesDone, ctx.sim().now());
    };
    sys.launchGpuAndDrain(std::move(k));
    r.end = sys.run();
    return r;
}

/** One work-group: open + pwrite + close, returns the final tick. */
Tick
runBasicWorkGroup(const SystemConfig &cfg, Invocation i)
{
    System sys(cfg);
    sys.kernel().vfs().createFile("/p");
    static const char payload[] = "parity-check-abcdef";
    gpu::KernelLaunch k;
    k.workItems = 256; // one group, 4 waves: barriers span waves
    k.wgSize = 256;
    k.program = [&sys, i](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        auto open_inv = i;
        open_inv.blocking = Blocking::Blocking; // fd consumed below
        const auto fd =
            co_await sys.gpuSys().open(ctx, open_inv, "/p", 1);
        co_await sys.gpuSys().pwrite(ctx, i, static_cast<int>(fd),
                                     payload, 16, 0);
    };
    sys.launchGpuAndDrain(std::move(k));
    return sys.run();
}

TEST(TimingParity, OrderingBlockingWaitMatrix)
{
    // The fig08 axes: ordering x blocking x wait mode.
    const SystemConfig cfg = smallConfig();
    struct Case
    {
        const char *name;
        Ordering o;
        Blocking b;
        WaitMode w;
        Tick golden;
    };
    const Case cases[] = {
        {"strong_blocking_poll", Ordering::Strong, Blocking::Blocking,
         WaitMode::Polling, 54515},
        {"strong_blocking_halt", Ordering::Strong, Blocking::Blocking,
         WaitMode::HaltResume, 63897},
        {"strong_nonblocking_poll", Ordering::Strong,
         Blocking::NonBlocking, WaitMode::Polling, 54307},
        {"relaxed_blocking_poll", Ordering::Relaxed, Blocking::Blocking,
         WaitMode::Polling, 54515},
        {"relaxed_blocking_halt", Ordering::Relaxed, Blocking::Blocking,
         WaitMode::HaltResume, 63897},
        {"relaxed_nonblocking_poll", Ordering::Relaxed,
         Blocking::NonBlocking, WaitMode::Polling, 54307},
    };
    for (const Case &c : cases) {
        checkTick(c.name,
                  runBasicWorkGroup(
                      cfg, inv(Granularity::WorkGroup, c.o, c.b, c.w)),
                  c.golden);
    }
}

TEST(TimingParity, KernelGranularityManyGroups)
{
    const SystemConfig cfg = smallConfig();
    System sys(cfg);
    sys.kernel().vfs().createFile("/k");
    gpu::KernelLaunch k;
    k.workItems = 8 * 256;
    k.wgSize = 256;
    k.program = [&sys](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        auto i = inv(Granularity::Kernel, Ordering::Relaxed,
                     Blocking::Blocking);
        co_await sys.gpuSys().pwrite(ctx, i, -1, nullptr, 0, 0);
    };
    sys.launchGpuAndDrain(std::move(k));
    checkTick("kernel_granularity", sys.run(), 30230);
}

TEST(TimingParity, WorkItemPerLanePwrites)
{
    checkTick("workitem_lane_pwrites",
              runWorkItemPwrites(smallConfig(),
                                 inv(Granularity::WorkItem,
                                     Ordering::Strong,
                                     Blocking::Blocking))
                  .end,
              264398);
}

TEST(TimingParity, NonBlockingWorkItemRound)
{
    // One fire-and-forget round: no wait sweep, no requester-side
    // recovery; drain() waits out the host.
    const Invocation nb = inv(Granularity::WorkItem, Ordering::Strong,
                              Blocking::NonBlocking);
    const struct
    {
        const char *name;
        SystemConfig cfg;
        std::uint32_t groups;
        Tick end_golden;
        Tick waves_golden;
    } cases[] = {
        {"workitem_nonblocking", smallConfig(), 1, 195159, 61895},
        {"workitem_nonblocking_rings", ringConfig(), 4, 288542,
         187848},
    };
    for (const auto &c : cases) {
        const WorkItemRun r = runWorkItemPwrites(c.cfg, nb, c.groups);
        checkTick(c.name, r.end, c.end_golden);
        checkTick((std::string(c.name) + "_waves").c_str(), r.wavesDone,
                  c.waves_golden);
    }
}

TEST(TimingParity, RingsWorkGroupAndWorkItem)
{
    // SQ/CQ rings over two shards: one-entry batches from the
    // work-group leader, whole-wave batches from work-item rounds,
    // and both wait modes (CQ-tail polling vs halt-resume).
    const SystemConfig cfg = ringConfig();
    const struct
    {
        const char *name;
        WaitMode w;
        Tick wg_golden;
        Tick wi_golden;
        Tick wi_waves_golden;
    } cases[] = {
        {"rings_poll", WaitMode::Polling, 63970, 288542, 268677},
        {"rings_halt", WaitMode::HaltResume, 67470, 288542, 273542},
    };
    for (const auto &c : cases) {
        const std::string name = c.name;
        checkTick((name + "_workgroup").c_str(),
                  runBasicWorkGroup(cfg, inv(Granularity::WorkGroup,
                                             Ordering::Strong,
                                             Blocking::Blocking, c.w)),
                  c.wg_golden);
        const WorkItemRun r = runWorkItemPwrites(
            cfg,
            inv(Granularity::WorkItem, Ordering::Strong,
                Blocking::Blocking, c.w),
            4);
        checkTick((name + "_workitem").c_str(), r.end, c.wi_golden);
        checkTick((name + "_workitem_waves").c_str(), r.wavesDone,
                  c.wi_waves_golden);
    }
}

struct FaultRun
{
    Tick tick = 0;
    std::uint64_t retries = 0;
    std::uint64_t shorts = 0;
};

/**
 * A scripted plan through both requester-side recovery paths: the
 * work-group leader's pwrite meets EINTR, EAGAIN and a short transfer
 * (dispatches 1-3, finishing on 4); then the first lane dispatched in
 * a work-item round meets the same three, one per round (dispatches
 * 5, 69 and 70; it alone is pending after round one).
 */
FaultRun
runScriptedFaults(const SystemConfig &cfg)
{
    System sys(cfg);
    sys.kernel().vfs().createFile("/flt");
    auto &fi = sys.kernel().faults();
    for (const std::uint64_t first : {1u, 5u}) {
        const std::uint64_t step = first == 1 ? 1 : 64;
        fi.planFault(osk::sysno::pwrite64, first,
                     {osk::FaultKind::Eintr});
        fi.planFault(osk::sysno::pwrite64, first + step,
                     {osk::FaultKind::Eagain});
        fi.planFault(osk::sysno::pwrite64, first + step + 1,
                     {osk::FaultKind::ShortTransfer, 0, 500});
    }
    static char data[16 + 64 * 4];
    for (std::size_t i = 0; i < sizeof data; ++i)
        data[i] = static_cast<char>('a' + i % 26);
    gpu::KernelLaunch k;
    k.workItems = 64;
    k.wgSize = 64;
    k.program = [&sys](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        auto i = inv(Granularity::WorkGroup, Ordering::Strong,
                     Blocking::Blocking);
        const auto fd = co_await sys.gpuSys().open(ctx, i, "/flt", 1);
        const auto wg = co_await sys.gpuSys().pwrite(
            ctx, i, static_cast<int>(fd), data, 16, 0);
        EXPECT_EQ(wg, 16);
        co_await sys.gpuSys().invokeWorkItems(
            ctx,
            inv(Granularity::WorkItem, Ordering::Strong,
                Blocking::Blocking),
            osk::sysno::pwrite64,
            [fd](std::uint32_t lane) {
                return std::optional(osk::makeArgs(
                    static_cast<int>(fd), &data[16 + 4 * lane], 4,
                    16 + 4 * lane));
            },
            [](std::uint32_t lane, std::int64_t ret) {
                EXPECT_EQ(ret, 4) << "lane " << lane;
            });
    };
    sys.launchGpuAndDrain(std::move(k));
    FaultRun r;
    r.tick = sys.run();
    r.retries = sys.gpuSys().syscallRetries();
    r.shorts = sys.gpuSys().shortTransfers();
    EXPECT_EQ(fi.plannedRemaining(), 0u);
    auto *f = static_cast<osk::RegularFile *>(
        sys.kernel().vfs().resolve("/flt"));
    EXPECT_EQ(std::string(f->data().begin(), f->data().end()),
              std::string(data, sizeof data));
    return r;
}

TEST(TimingParity, ScriptedFaultRecovery)
{
    const struct
    {
        const char *name;
        SystemConfig cfg;
        Tick golden;
    } cases[] = {
        {"faults_slots", smallConfig(), 437948},
        {"faults_rings", ringConfig(), 263546},
    };
    for (const auto &c : cases) {
        const FaultRun r = runScriptedFaults(c.cfg);
        checkTick(c.name, r.tick, c.golden);
        checkTick((std::string(c.name) + "_retries").c_str(), r.retries,
                  4);
        checkTick((std::string(c.name) + "_short_transfers").c_str(),
                  r.shorts, 2);
    }
}

TEST(TimingParity, CoalescedInterruptBatches)
{
    SystemConfig cfg = smallConfig();
    cfg.genesys.coalesceWindow = ticks::us(50);
    cfg.genesys.coalesceMaxBatch = 8;
    System sys(cfg);
    sys.kernel().vfs().createFile("/co")->setSynthetic(1 << 20);
    gpu::KernelLaunch k;
    k.workItems = 16 * 64;
    k.wgSize = 64;
    k.program = [&sys](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        auto i = inv(Granularity::WorkGroup, Ordering::Relaxed,
                     Blocking::Blocking);
        const auto fd = co_await sys.gpuSys().open(ctx, i, "/co", 0);
        co_await sys.gpuSys().pread(ctx, i, static_cast<int>(fd),
                                    nullptr, 4096,
                                    ctx.workgroupId() * 4096);
    };
    sys.launchGpuAndDrain(std::move(k));
    checkTick("coalesced_batches", sys.run(), 161476);
}

TEST(TimingParity, ResidencyPressureManyGroups)
{
    // More work-groups than the small device can hold resident.
    const SystemConfig cfg = smallConfig();
    System sys(cfg);
    sys.kernel().vfs().createFile("/rp");
    gpu::KernelLaunch k;
    k.workItems = 32 * 64;
    k.wgSize = 64;
    static char bytes[32];
    k.program = [&sys](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        bytes[ctx.workgroupId()] =
            static_cast<char>('a' + ctx.workgroupId() % 26);
        auto i = inv(Granularity::WorkGroup, Ordering::Relaxed,
                     Blocking::Blocking);
        const auto fd = co_await sys.gpuSys().open(ctx, i, "/rp", 1);
        co_await sys.gpuSys().pwrite(ctx, i, static_cast<int>(fd),
                                     &bytes[ctx.workgroupId()], 1,
                                     ctx.workgroupId());
    };
    sys.launchGpuAndDrain(std::move(k));
    checkTick("residency_pressure", sys.run(), 208769);
}

TEST(TimingParity, NonBlockingSlotReuse)
{
    const SystemConfig cfg = smallConfig();
    System sys(cfg);
    sys.kernel().vfs().createFile("/reuse");
    gpu::KernelLaunch k;
    k.workItems = 64;
    k.wgSize = 64;
    static const char byte = 'r';
    k.program = [&sys](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        auto i = inv(Granularity::WorkGroup, Ordering::Relaxed,
                     Blocking::Blocking);
        const auto fd = co_await sys.gpuSys().open(ctx, i, "/reuse", 1);
        auto nb = inv(Granularity::WorkGroup, Ordering::Relaxed,
                      Blocking::NonBlocking);
        for (int n = 0; n < 8; ++n) {
            co_await sys.gpuSys().pwrite(ctx, nb, static_cast<int>(fd),
                                         &byte, 1, n);
        }
    };
    sys.launchGpuAndDrain(std::move(k));
    checkTick("nonblocking_reuse", sys.run(), 215138);
}

TEST(TimingParity, PollingDaemonBackend)
{
    const SystemConfig cfg = smallConfig();
    System sys(cfg);
    sys.kernel().vfs().createFile("/pd");
    sys.host().startPollingDaemon(ticks::us(20));
    static const char data[] = "daemon";
    gpu::KernelLaunch k;
    k.workItems = 64;
    k.wgSize = 64;
    k.program = [&sys](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        auto i = inv(Granularity::WorkGroup, Ordering::Strong,
                     Blocking::Blocking);
        const auto fd = co_await sys.gpuSys().open(ctx, i, "/pd", 1);
        co_await sys.gpuSys().pwrite(ctx, i, static_cast<int>(fd),
                                     data, 6, 0);
        sys.host().stopDaemon();
    };
    sys.launchGpu(std::move(k));
    checkTick("polling_daemon", sys.run(), 77801);
}

TEST(TimingParity, GrepWorkGroupAndWorkItem)
{
    // fig13a shape on a reduced corpus; syscall-heavy (open/read/write
    // per file) and residency-limited, via both granularities.
    auto run = [](workloads::GrepMode mode) {
        SystemConfig cfg = smallConfig();
        System sys(cfg);
        workloads::GrepCorpusConfig cc;
        cc.numFiles = 32;
        cc.fileBytes = 2 * 1024;
        const auto corpus = workloads::buildGrepCorpus(sys, cc);
        const auto res = workloads::runGrep(sys, corpus, mode);
        EXPECT_TRUE(res.correct);
        return res.elapsed;
    };
    checkTick("grep_workgroup", run(workloads::GrepMode::GpuWorkGroup),
              902796);
    checkTick("grep_workitem_poll",
              run(workloads::GrepMode::GpuWorkItemPolling), 477865);
}

} // namespace
} // namespace genesys::core
