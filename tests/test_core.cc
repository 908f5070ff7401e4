/**
 * @file
 * End-to-end tests of GENESYS: GPU programs invoking POSIX system
 * calls through the full slot/interrupt/workqueue pipeline, across the
 * design space of granularity x ordering x blocking x wait mode.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "core/system.hh"
#include "osk/devices.hh"
#include "support/logging.hh"
#include "workloads/gkv.hh"

namespace genesys::core
{
namespace
{

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

TEST(EnumNames, RenderProperly)
{
    EXPECT_STREQ(granularityName(Granularity::WorkItem), "work-item");
    EXPECT_STREQ(granularityName(Granularity::WorkGroup), "work-group");
    EXPECT_STREQ(granularityName(Granularity::Kernel), "kernel");
    EXPECT_STREQ(orderingName(Ordering::Strong), "strong");
    EXPECT_STREQ(orderingName(Ordering::Relaxed), "relaxed");
    EXPECT_STREQ(blockingName(Blocking::NonBlocking), "non-blocking");
    EXPECT_STREQ(waitModeName(WaitMode::HaltResume), "halt-resume");
}

TEST(System, PlatformStringMentionsKeyComponents)
{
    System sys(smallConfig());
    const auto s = sys.platformString();
    EXPECT_NE(s.find("CUs"), std::string::npos);
    EXPECT_NE(s.find("syscall area"), std::string::npos);
}

TEST(System, StatsReportTracksActivity)
{
    System sys(smallConfig());
    sys.kernel().vfs().createFile("/s");
    gpu::KernelLaunch k;
    k.workItems = 2 * 64;
    k.wgSize = 64;
    k.program = [&sys](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        auto i = inv(Granularity::WorkGroup, Ordering::Relaxed,
                     Blocking::Blocking);
        const auto fd = co_await sys.gpuSys().open(ctx, i, "/s", 1);
        co_await sys.gpuSys().pwrite(ctx, i, static_cast<int>(fd),
                                     "x", 1, ctx.workgroupId());
    };
    sys.launchGpuAndDrain(std::move(k));
    sys.run();
    const std::string report = sys.statsReport();
    EXPECT_NE(report.find("gpu.kernels_launched"), std::string::npos);
    // 2 groups x (open + pwrite) = 4 requests.
    EXPECT_NE(report.find("genesys.requests_issued"),
              std::string::npos);
    EXPECT_NE(report.find(" 4\n"), std::string::npos);
    EXPECT_NE(report.find("sim.final_tick"), std::string::npos);
}

/// Every CharDevice under @p dir, depth first in name order.
void
collectFiles(const osk::Directory &dir, const std::string &path,
             std::vector<std::pair<std::string, osk::CharDevice *>> &out)
{
    for (const auto &[name, node] : dir.entries()) {
        const std::string child = path + "/" + name;
        if (node->type() == osk::InodeType::Directory)
            collectFiles(static_cast<const osk::Directory &>(*node),
                         child, out);
        else
            out.emplace_back(
                child, static_cast<osk::CharDevice *>(node.get()));
    }
}

std::string
readAll(osk::CharDevice &file)
{
    char buf[64] = {};
    const std::uint64_t n = file.read(0, buf, sizeof(buf));
    return std::string(buf, n);
}

/// The knobs: every other /sys/genesys file is read-only.
const std::set<std::string> kWritableSysfs = {
    "/sys/genesys/coalesce_max_batch",
    "/sys/genesys/coalesce_window_ns",
    "/sys/genesys/fault/atomic_transfer_bytes",
    "/sys/genesys/fault/device_delay_ns",
    "/sys/genesys/fault/device_delay_ppm",
    "/sys/genesys/fault/eagain_ppm",
    "/sys/genesys/fault/eintr_ppm",
    "/sys/genesys/fault/errno_ppm",
    "/sys/genesys/fault/errno_value",
    "/sys/genesys/fault/seed",
    "/sys/genesys/fault/short_ppm",
    "/sys/genesys/gsan/enabled",
    "/sys/genesys/gsan/max_reports",
    "/sys/genesys/net/tcp/loss_ppm",
    "/sys/genesys/rings/consumer_grace_ns",
    "/sys/genesys/rings/consumer_poll_ns",
    "/sys/genesys/workqueue/max_workers",
    "/sys/genesys/workqueue/queue_bound",
};

// Goldens start after the raw string's leading newline.
const char *const kPinnedSysfsTree = 1 + R"(
/sys/genesys/coalesce_max_batch 1
/sys/genesys/coalesce_window_ns 0
/sys/genesys/fault/atomic_transfer_bytes 512
/sys/genesys/fault/device_delay_ns 400000
/sys/genesys/fault/device_delay_ppm 0
/sys/genesys/fault/eagain_ppm 0
/sys/genesys/fault/eintr_ppm 0
/sys/genesys/fault/errno_ppm 0
/sys/genesys/fault/errno_value 5
/sys/genesys/fault/injected 0
/sys/genesys/fault/seed 1
/sys/genesys/fault/short_ppm 0
/sys/genesys/gsan/enabled 1
/sys/genesys/gsan/lost_wakeups 0
/sys/genesys/gsan/max_reports 256
/sys/genesys/gsan/ordering_violations 0
/sys/genesys/gsan/payload_races 0
/sys/genesys/gsan/reports 0
/sys/genesys/net/epoll/edges_delivered 6
/sys/genesys/net/epoll/edges_recorded 6
/sys/genesys/net/epoll/notifies 38
/sys/genesys/net/epoll/shards/0/wakeups 5
/sys/genesys/net/epoll/shards/1/wakeups 0
/sys/genesys/net/epoll/timeouts 0
/sys/genesys/net/epoll/waits 8
/sys/genesys/net/epoll/wakeups 5
/sys/genesys/net/tcp/accepts 2
/sys/genesys/net/tcp/backpressure_stalls 0
/sys/genesys/net/tcp/connects 2
/sys/genesys/net/tcp/copied_bytes 0
/sys/genesys/net/tcp/loss_ppm 50000
/sys/genesys/net/tcp/refused 0
/sys/genesys/net/tcp/resets 0
/sys/genesys/net/tcp/retransmits 1
/sys/genesys/net/tcp/segs_lost 1
/sys/genesys/net/tcp/segs_sent 13
/sys/genesys/net/tcp/zerocopy_bytes 1280
/sys/genesys/net/udp/delivered 0
/sys/genesys/net/udp/dropped 0
/sys/genesys/net/udp/unroutable 0
/sys/genesys/rings/0/batches 52
/sys/genesys/rings/0/cq_head 0
/sys/genesys/rings/0/cq_reclaims 0
/sys/genesys/rings/0/cq_tail 52
/sys/genesys/rings/0/entries 52
/sys/genesys/rings/0/sq_head 52
/sys/genesys/rings/0/sq_tail 52
/sys/genesys/rings/1/batches 10
/sys/genesys/rings/1/cq_head 0
/sys/genesys/rings/1/cq_reclaims 0
/sys/genesys/rings/1/cq_tail 10
/sys/genesys/rings/1/entries 10
/sys/genesys/rings/1/sq_head 10
/sys/genesys/rings/1/sq_tail 10
/sys/genesys/rings/batches 62
/sys/genesys/rings/consumer_grace_ns 30000
/sys/genesys/rings/consumer_poll_ns 500
/sys/genesys/rings/cq_posted 62
/sys/genesys/rings/doorbells_suppressed 56
/sys/genesys/rings/enabled 1
/sys/genesys/rings/entries 64
/sys/genesys/rings/entries_submitted 62
/sys/genesys/rings/sq_full_retries 0
/sys/genesys/shards/0/interrupts 52
/sys/genesys/shards/0/issued 52
/sys/genesys/shards/0/processed 52
/sys/genesys/shards/1/interrupts 10
/sys/genesys/shards/1/issued 10
/sys/genesys/shards/1/processed 10
/sys/genesys/shards/count 2
/sys/genesys/workqueue/max_workers 32
/sys/genesys/workqueue/queue_bound 4096
/sys/genesys/workqueue/spills 0
/sys/genesys/workqueue/steals 56
)";

const char *const kPinnedStatsReport = 1 + R"(
gpu.kernels_launched                     2
gpu.workgroups_launched                  14
gpu.wavefronts_launched                  14
gpu.l2_hits                              933
gpu.l2_misses                            12
genesys.requests_issued                  62
genesys.interrupts                       62
genesys.batches                          6
genesys.syscalls_processed               62
genesys.batch_size_mean                  10.3333
genesys.syscall_retries                  0
genesys.short_transfers                  0
genesys.host_restarts                    0
genesys.area_shards                      2
genesys.rings_enabled                    1
genesys.ring_batches                     62
genesys.ring_entries                     62
genesys.ring_batch_occupancy             1
genesys.ring_doorbells_suppressed        56
genesys.ring_cq_posted                   62
osk.faults_injected                      0
gsan.enabled                             1
gsan.reports                             0
gsan.payload_races                       0
gsan.ordering_violations                 0
gsan.lost_wakeups                        0
gsan.threads                             42
net.udp_delivered                        0
net.udp_dropped                          0
net.tcp_segs_sent                        13
net.tcp_retransmits                      1
net.tcp_backpressure_stalls              0
net.tcp_resets                           0
net.tcp_copied_bytes                     0
net.tcp_zerocopy_bytes                   1280
net.epoll_waits                          8
net.epoll_wakeups                        5
net.epoll_notifies                       38
mem.gpu_bytes                            768
mem.cpu_bytes                            0
cpu.utilization                          0.0501917
osk.workqueue_tasks                      62
osk.workqueue_max_workers                32
osk.workqueue_steals                     56
osk.workqueue_spills                     0
sim.events_executed                      3389
sim.final_tick                           717310
)";

TEST(System, SysfsTreeAndStatsReportArePinned)
{
    // One fixed run over the file, TCP/epoll and ring paths, then the
    // whole /sys/genesys tree and statsReport() against goldens: the
    // path set, every value, which files take writes, and every
    // report byte.
    SystemConfig cfg = smallConfig();
    cfg.genesys.useRings = true;
    cfg.genesys.areaShards = 2;
    System sys(cfg);
    // The same state with or without GENESYS_GSAN.
    sys.gsan().setEnabled(true);

    sys.kernel().vfs().createFile("/pin");
    gpu::KernelLaunch k;
    k.workItems = 12 * 64;
    k.wgSize = 64;
    k.program = [&sys](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        auto i = inv(Granularity::WorkGroup, Ordering::Relaxed,
                     Blocking::Blocking);
        const auto fd = co_await sys.gpuSys().open(ctx, i, "/pin", 2);
        co_await sys.gpuSys().pwrite(ctx, i, static_cast<int>(fd),
                                     "pin", 3, 4 * ctx.workgroupId());
    };
    sys.launchGpuAndDrain(std::move(k));
    sys.run();

    workloads::GkvConfig gc;
    gc.numConnections = 2;
    gc.requestsPerConn = 4;
    gc.serverGroups = 2;
    gc.valueBytes = 64;
    gc.pipelineDepth = 2;
    gc.thinkNs = 20000;
    sys.kernel().tcp().setLossPpm(50000); // exercise segs_lost
    ASSERT_TRUE(workloads::runGkv(sys, gc).correct);

    std::vector<std::pair<std::string, osk::CharDevice *>> files;
    const auto *sysDir = static_cast<const osk::Directory *>(
        sys.kernel().vfs().resolve("/sys/genesys"));
    ASSERT_NE(sysDir, nullptr);
    collectFiles(*sysDir, "/sys/genesys", files);

    std::string tree;
    for (const auto &[path, file] : files)
        tree += path + " " + readAll(*file);
    EXPECT_EQ(tree, kPinnedSysfsTree);

    for (const auto &[path, file] : files) {
        const std::string before = readAll(*file);
        if (kWritableSysfs.count(path) != 0) {
            // Writing a knob's own value back is accepted and a no-op.
            EXPECT_EQ(file->write(0, before.data(), before.size()),
                      before.size())
                << path;
        } else {
            EXPECT_EQ(file->write(0, "7\n", 2), 0u) << path;
        }
        EXPECT_EQ(readAll(*file), before) << path;
    }

    EXPECT_EQ(sys.statsReport(), kPinnedStatsReport);
}

TEST(System, TeardownDestroysSuspendedWavesAndServiceLoops)
{
    // A wave that never finishes leaves its GpuDevice::launch root
    // suspended, and the workqueue worker loops never exit; the
    // System must destroy those frames (and their locals) with itself.
    struct DtorCounter
    {
        int &count;
        ~DtorCounter() { ++count; }
    };
    int destroyed = 0;
    {
        System sys(smallConfig());
        sim::WaitQueue never(sys.sim().events());
        gpu::KernelLaunch k;
        k.workItems = 64;
        k.wgSize = 64;
        k.program = [&never, &destroyed](gpu::WavefrontCtx &)
            -> sim::Task<> {
            DtorCounter guard{destroyed};
            co_await never.wait();
        };
        sys.launchGpu(std::move(k));
        sys.run();
        EXPECT_GT(sys.sim().liveTasks(), 1u);
        EXPECT_EQ(destroyed, 0);
    }
    EXPECT_EQ(destroyed, 1);
}

TEST(GenesysEndToEnd, WorkGroupBlockingPwriteWritesFile)
{
    System sys(smallConfig());
    sys.kernel().vfs().createFile("/out");
    const char *payload = "written-from-gpu";

    gpu::KernelLaunch k;
    k.workItems = 64;
    k.wgSize = 64;
    k.program = [&sys, payload](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        auto i = inv(Granularity::WorkGroup, Ordering::Strong,
                     Blocking::Blocking);
        const auto fd = co_await sys.gpuSys().open(ctx, i, "/out", 1);
        EXPECT_GE(fd, 0);
        const auto n = co_await sys.gpuSys().pwrite(
            ctx, i, static_cast<int>(fd), payload, 16, 0);
        EXPECT_EQ(n, 16);
        EXPECT_EQ(co_await sys.gpuSys().close(ctx, i,
                                              static_cast<int>(fd)),
                  0);
    };
    sys.launchGpuAndDrain(std::move(k));
    sys.run();

    auto *f = static_cast<osk::RegularFile *>(
        sys.kernel().vfs().resolve("/out"));
    EXPECT_EQ(std::string(f->data().begin(), f->data().end()),
              "written-from-gpu");
    EXPECT_EQ(sys.host().processedSyscalls(), 3u);
    EXPECT_EQ(sys.gpuSys().issuedRequests(), 3u);
}

/**
 * The full ordering x blocking x wait-mode matrix must be functionally
 * identical for a producer+consumer pair of calls (timing differs;
 * correctness must not). Mirrors Section V-A's semantics table.
 */
class OrderingMatrix
    : public ::testing::TestWithParam<
          std::tuple<Ordering, Blocking, WaitMode>>
{};

TEST_P(OrderingMatrix, WorkGroupReadModifyWriteIsCorrect)
{
    const auto [ordering, blocking, wait_mode] = GetParam();
    System sys(smallConfig());
    sys.kernel().vfs().createFile("/in")->setData("abcdefgh");
    sys.kernel().vfs().createFile("/out");

    gpu::KernelLaunch k;
    k.workItems = 256; // one group, 4 waves: barriers really span waves
    k.wgSize = 256;
    auto *buf = new char[8];
    k.program = [&sys, ordering = ordering, blocking = blocking,
                 wait_mode = wait_mode,
                 buf](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        // Producer (read) must be blocking to use its data.
        auto read_inv = inv(Granularity::WorkGroup, ordering,
                            Blocking::Blocking, wait_mode);
        const auto fd =
            co_await sys.gpuSys().open(ctx, read_inv, "/in", 0);
        co_await sys.gpuSys().pread(ctx, read_inv,
                                    static_cast<int>(fd), buf, 8, 0);
        // Every wave sees the data after the (post-)barrier.
        if (ctx.isGroupLeader())
            for (int c = 0; c < 8; ++c)
                buf[c] = static_cast<char>(buf[c] - 32); // to upper
        // open must block: its fd is consumed immediately.
        const auto wfd =
            co_await sys.gpuSys().open(ctx, read_inv, "/out", 1);
        auto write_inv = inv(Granularity::WorkGroup, ordering, blocking,
                             wait_mode);
        co_await sys.gpuSys().pwrite(ctx, write_inv,
                                     static_cast<int>(wfd), buf, 8, 0);
    };
    sys.launchGpuAndDrain(std::move(k));
    sys.run();

    auto *f = static_cast<osk::RegularFile *>(
        sys.kernel().vfs().resolve("/out"));
    EXPECT_EQ(std::string(f->data().begin(), f->data().end()),
              "ABCDEFGH");
    delete[] buf;
}

INSTANTIATE_TEST_SUITE_P(
    DesignSpace, OrderingMatrix,
    ::testing::Combine(
        ::testing::Values(Ordering::Strong, Ordering::Relaxed),
        ::testing::Values(Blocking::Blocking, Blocking::NonBlocking),
        ::testing::Values(WaitMode::Polling, WaitMode::HaltResume)));

TEST(GenesysEndToEnd, KernelGranularityInvokesOnce)
{
    System sys(smallConfig());
    sys.kernel().vfs().createFile("/once");
    gpu::KernelLaunch k;
    k.workItems = 8 * 256; // many work-groups
    k.wgSize = 256;
    k.program = [&sys](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        auto i = inv(Granularity::Kernel, Ordering::Relaxed,
                     Blocking::Blocking);
        co_await sys.gpuSys().pwrite(ctx, i, -1, nullptr, 0, 0);
        (void)ctx;
    };
    // pwrite on bad fd: result irrelevant; count is the point.
    sys.launchGpuAndDrain(std::move(k));
    sys.run();
    EXPECT_EQ(sys.gpuSys().issuedRequests(), 1u);
    EXPECT_EQ(sys.host().processedSyscalls(), 1u);
}

TEST(GenesysEndToEnd, KernelStrongOrderingIsFatal)
{
    System sys(smallConfig());
    gpu::KernelLaunch k;
    k.workItems = 64;
    k.wgSize = 64;
    k.program = [&sys](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        auto i = inv(Granularity::Kernel, Ordering::Strong,
                     Blocking::Blocking);
        co_await sys.gpuSys().pwrite(ctx, i, 0, nullptr, 0, 0);
    };
    sys.launchGpu(std::move(k));
    EXPECT_THROW(sys.run(), FatalError);
}

TEST(GenesysEndToEnd, WorkItemRelaxedOrderingIsFatal)
{
    System sys(smallConfig());
    gpu::KernelLaunch k;
    k.workItems = 64;
    k.wgSize = 64;
    k.program = [&sys](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        Invocation i = inv(Granularity::WorkItem, Ordering::Relaxed,
                           Blocking::Blocking);
        co_await sys.gpuSys().invokeWorkItems(
            ctx, i, osk::sysno::write,
            [](std::uint32_t) { return std::nullopt; });
    };
    sys.launchGpu(std::move(k));
    EXPECT_THROW(sys.run(), FatalError);
}

TEST(GenesysEndToEnd, WorkItemGranularityPerLaneWrites)
{
    System sys(smallConfig());
    sys.kernel().vfs().createFile("/wi");
    // Each of 64 lanes pwrites its own byte at its own offset —
    // position-relative write would be racy, pwrite is not (Sec V-A).
    static char lane_bytes[64];
    for (int i = 0; i < 64; ++i)
        lane_bytes[i] = static_cast<char>('A' + (i % 26));

    gpu::KernelLaunch k;
    k.workItems = 64;
    k.wgSize = 64;
    int results = 0;
    k.program = [&sys, &results](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        auto i = inv(Granularity::WorkGroup, Ordering::Strong,
                     Blocking::Blocking);
        const auto fd = co_await sys.gpuSys().open(ctx, i, "/wi", 1);
        Invocation wi = inv(Granularity::WorkItem, Ordering::Strong,
                            Blocking::Blocking);
        co_await sys.gpuSys().invokeWorkItems(
            ctx, wi, osk::sysno::pwrite64,
            [fd](std::uint32_t lane) {
                return std::optional(osk::makeArgs(
                    static_cast<int>(fd), &lane_bytes[lane], 1, lane));
            },
            [&results](std::uint32_t, std::int64_t ret) {
                EXPECT_EQ(ret, 1);
                ++results;
            });
    };
    sys.launchGpuAndDrain(std::move(k));
    sys.run();

    EXPECT_EQ(results, 64);
    auto *f = static_cast<osk::RegularFile *>(
        sys.kernel().vfs().resolve("/wi"));
    ASSERT_EQ(f->size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(f->data()[i], lane_bytes[i]);
    // 64 lane requests + 1 open.
    EXPECT_EQ(sys.gpuSys().issuedRequests(), 65u);
}

TEST(GenesysEndToEnd, WorkItemDivergenceSkipsInactiveLanes)
{
    System sys(smallConfig());
    sys.kernel().vfs().createFile("/div");
    gpu::KernelLaunch k;
    k.workItems = 64;
    k.wgSize = 64;
    static const char byte = 'x';
    k.program = [&sys](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        auto i = inv(Granularity::WorkGroup, Ordering::Strong,
                     Blocking::Blocking);
        const auto fd = co_await sys.gpuSys().open(ctx, i, "/div", 1);
        Invocation wi = inv(Granularity::WorkItem, Ordering::Strong,
                            Blocking::Blocking);
        co_await sys.gpuSys().invokeWorkItems(
            ctx, wi, osk::sysno::pwrite64,
            [fd](std::uint32_t lane)
                -> std::optional<osk::SyscallArgs> {
                if (lane % 4 != 0)
                    return std::nullopt; // diverged lanes
                return osk::makeArgs(static_cast<int>(fd), &byte, 1,
                                     lane);
            });
    };
    sys.launchGpuAndDrain(std::move(k));
    sys.run();
    EXPECT_EQ(sys.gpuSys().issuedRequests(), 17u); // open + 16 lanes
}

TEST(GenesysEndToEnd, NonBlockingDataVisibleAfterDrain)
{
    System sys(smallConfig());
    sys.kernel().vfs().createFile("/nb");
    Tick kernel_done = 0;
    gpu::KernelLaunch k;
    k.workItems = 64;
    k.wgSize = 64;
    static const char data[] = "late";
    k.program = [&sys, &kernel_done](gpu::WavefrontCtx &ctx)
        -> sim::Task<> {
        auto i = inv(Granularity::WorkGroup, Ordering::Relaxed,
                     Blocking::Blocking);
        const auto fd = co_await sys.gpuSys().open(ctx, i, "/nb", 1);
        auto nb = inv(Granularity::WorkGroup, Ordering::Relaxed,
                      Blocking::NonBlocking);
        co_await sys.gpuSys().pwrite(ctx, nb, static_cast<int>(fd),
                                     data, 4, 0);
        kernel_done = ctx.sim().now();
    };
    sys.launchGpuAndDrain(std::move(k));
    const Tick end = sys.run();
    // The kernel retired before the CPU finished the pwrite: the whole
    // point of non-blocking invocation (and of Section IX's hazard).
    EXPECT_LT(kernel_done, end);
    auto *f = static_cast<osk::RegularFile *>(
        sys.kernel().vfs().resolve("/nb"));
    EXPECT_EQ(std::string(f->data().begin(), f->data().end()), "late");
}

TEST(GenesysEndToEnd, CoalescingBatchesInterrupts)
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
    sys.run();
    EXPECT_EQ(sys.host().processedSyscalls(), 32u);
    EXPECT_GT(sys.host().interrupts(), sys.host().batches());
    EXPECT_GT(sys.host().batchSizes().mean(), 1.0);
    EXPECT_LE(sys.host().batchSizes().max(), 8.0);
}

TEST(GenesysEndToEnd, SetCoalescingValidatesAndApplies)
{
    System sys(smallConfig());
    EXPECT_THROW(sys.host().setCoalescing(ticks::us(1), 0), PanicError);
    sys.host().setCoalescing(ticks::us(10), 4);
}

TEST(GenesysEndToEnd, HaltResumeCompletesAndFreesResources)
{
    System sys(smallConfig());
    sys.kernel().vfs().createFile("/hr")->setData("0123456789abcdef");
    std::int64_t got = -1;
    gpu::KernelLaunch k;
    k.workItems = 64;
    k.wgSize = 64;
    static char buf[16];
    k.program = [&sys, &got](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        auto i = inv(Granularity::WorkGroup, Ordering::Strong,
                     Blocking::Blocking, WaitMode::HaltResume);
        const auto fd = co_await sys.gpuSys().open(ctx, i, "/hr", 0);
        got = co_await sys.gpuSys().pread(ctx, i, static_cast<int>(fd),
                                          buf, 16, 0);
    };
    sys.launchGpuAndDrain(std::move(k));
    sys.run();
    EXPECT_EQ(got, 16);
    EXPECT_EQ(std::string(buf, 16), "0123456789abcdef");
    EXPECT_EQ(sys.gpu().residentWorkGroups(), 0u);
}

TEST(GenesysEndToEnd, PollingDaemonBackendServicesRequests)
{
    System sys(smallConfig());
    sys.kernel().vfs().createFile("/pd");
    sys.host().startPollingDaemon(ticks::us(20));
    static const char data[] = "daemon";
    gpu::KernelLaunch k;
    k.workItems = 64;
    k.wgSize = 64;
    std::int64_t wrote = -1;
    k.program = [&sys, &wrote](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        auto i = inv(Granularity::WorkGroup, Ordering::Strong,
                     Blocking::Blocking);
        const auto fd = co_await sys.gpuSys().open(ctx, i, "/pd", 1);
        wrote = co_await sys.gpuSys().pwrite(
            ctx, i, static_cast<int>(fd), data, 6, 0);
        sys.host().stopDaemon();
    };
    sys.launchGpu(std::move(k));
    sys.run();
    EXPECT_EQ(wrote, 6);
    EXPECT_EQ(sys.host().interrupts(), 0u); // no interrupt path used
    auto *f = static_cast<osk::RegularFile *>(
        sys.kernel().vfs().resolve("/pd"));
    EXPECT_EQ(std::string(f->data().begin(), f->data().end()),
              "daemon");
}

TEST(GenesysEndToEnd, GetrusageFromGpu)
{
    System sys(smallConfig());
    static osk::RUsage usage{};
    gpu::KernelLaunch k;
    k.workItems = 64;
    k.wgSize = 64;
    std::int64_t ret = -1;
    k.program = [&sys, &ret](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        auto i = inv(Granularity::WorkGroup, Ordering::Strong,
                     Blocking::Blocking);
        ret = co_await sys.gpuSys().getrusage(ctx, i, &usage);
    };
    sys.launchGpuAndDrain(std::move(k));
    sys.run();
    EXPECT_EQ(ret, 0);
}

TEST(GenesysEndToEnd, SignalsFromGpuReachProcess)
{
    System sys(smallConfig());
    gpu::KernelLaunch k;
    k.workItems = 4 * 64;
    k.wgSize = 64;
    static osk::SigInfo info{};
    info.signo = osk::SIGRTMIN_;
    k.program = [&sys](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        osk::SigInfo payload = info;
        payload.value = ctx.workgroupId();
        auto i = inv(Granularity::WorkGroup, Ordering::Relaxed,
                     Blocking::NonBlocking);
        // NOTE: payload must outlive the async call; use static copies
        // indexed by work-group for the test.
        static osk::SigInfo payloads[16];
        payloads[ctx.workgroupId()] = payload;
        co_await sys.gpuSys().rtSigqueueinfo(
            ctx, i, 0, osk::SIGRTMIN_, &payloads[ctx.workgroupId()]);
    };
    sys.launchGpuAndDrain(std::move(k));
    sys.run();
    EXPECT_EQ(sys.process().signals().pending(), 4u);
    std::set<std::int64_t> values;
    osk::SigInfo got{};
    while (sys.process().signals().tryDequeue(got))
        values.insert(got.value);
    EXPECT_EQ(values, (std::set<std::int64_t>{0, 1, 2, 3}));
}

TEST(GenesysEndToEnd, StatefulReadSharedFilePointer)
{
    // Sequential reads at work-group granularity advance the shared
    // file position — the statefulness hazard of Section IV.
    System sys(smallConfig());
    sys.kernel().vfs().createFile("/seq")->setData("aabbccdd");
    static char chunk[2];
    std::string assembled;
    gpu::KernelLaunch k;
    k.workItems = 64;
    k.wgSize = 64;
    k.program = [&sys, &assembled](gpu::WavefrontCtx &ctx)
        -> sim::Task<> {
        auto i = inv(Granularity::WorkGroup, Ordering::Strong,
                     Blocking::Blocking);
        const auto fd = co_await sys.gpuSys().open(ctx, i, "/seq", 0);
        for (int r = 0; r < 4; ++r) {
            const auto n = co_await sys.gpuSys().read(
                ctx, i, static_cast<int>(fd), chunk, 2);
            EXPECT_EQ(n, 2);
            assembled.append(chunk, 2);
        }
    };
    sys.launchGpuAndDrain(std::move(k));
    sys.run();
    EXPECT_EQ(assembled, "aabbccdd");
}

TEST(GenesysEndToEnd, ConcurrentWorkGroupsAllServiced)
{
    System sys(smallConfig());
    sys.kernel().vfs().createFile("/par");
    gpu::KernelLaunch k;
    k.workItems = 32 * 64; // more groups than device residency
    k.wgSize = 64;
    static char bytes[32];
    k.program = [&sys](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        bytes[ctx.workgroupId()] =
            static_cast<char>('a' + ctx.workgroupId() % 26);
        auto i = inv(Granularity::WorkGroup, Ordering::Relaxed,
                     Blocking::Blocking);
        const auto fd = co_await sys.gpuSys().open(ctx, i, "/par", 1);
        co_await sys.gpuSys().pwrite(ctx, i, static_cast<int>(fd),
                                     &bytes[ctx.workgroupId()], 1,
                                     ctx.workgroupId());
    };
    sys.launchGpuAndDrain(std::move(k));
    sys.run();
    auto *f = static_cast<osk::RegularFile *>(
        sys.kernel().vfs().resolve("/par"));
    ASSERT_EQ(f->size(), 32u);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(f->data()[i], 'a' + i % 26) << i;
    EXPECT_EQ(sys.host().processedSyscalls(), 64u);
}

TEST(GenesysEndToEnd, NonBlockingReusesSlotAfterCpuFreesIt)
{
    // Back-to-back non-blocking calls from the same wave reuse the
    // same slot; the second claim spins until the CPU frees it.
    System sys(smallConfig());
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
    sys.run();
    auto *f = static_cast<osk::RegularFile *>(
        sys.kernel().vfs().resolve("/reuse"));
    EXPECT_EQ(f->size(), 8u);
    EXPECT_EQ(sys.host().processedSyscalls(), 9u);
}

TEST(GenesysTiming, NonBlockingReturnsFasterThanBlocking)
{
    auto run = [](Blocking blocking) {
        System sys(smallConfig());
        sys.kernel().vfs().createFile("/t");
        Tick done = 0;
        gpu::KernelLaunch k;
        k.workItems = 64;
        k.wgSize = 64;
        static const char byte = 'x';
        k.program = [&sys, &done,
                     blocking](gpu::WavefrontCtx &ctx) -> sim::Task<> {
            auto i = inv(Granularity::WorkGroup, Ordering::Relaxed,
                         Blocking::Blocking);
            const auto fd =
                co_await sys.gpuSys().open(ctx, i, "/t", 1);
            auto w = inv(Granularity::WorkGroup, Ordering::Relaxed,
                         blocking);
            co_await sys.gpuSys().pwrite(ctx, w, static_cast<int>(fd),
                                         &byte, 1, 0);
            done = ctx.sim().now();
        };
        sys.launchGpuAndDrain(std::move(k));
        sys.run();
        return done;
    };
    EXPECT_LT(run(Blocking::NonBlocking), run(Blocking::Blocking));
}

TEST(GenesysTiming, RelaxedOrderingFreesNonLeaderWavesEarly)
{
    // Strong ordering holds every wave of the group at the post-call
    // barrier until the CPU finishes the pwrite; relaxed (consumer)
    // ordering lets the other 3 wavefronts retire as soon as they pass
    // the pre-call barrier (Fig 4 with Bar2 removed).
    struct Times
    {
        Tick earliestWaveDone = kMaxTick;
        Tick leaderCallDone = 0;
    };
    auto run = [](Ordering ordering) {
        System sys(smallConfig());
        sys.kernel().vfs().createFile("/o");
        auto times = std::make_shared<Times>();
        gpu::KernelLaunch k;
        k.workItems = 256; // one group, 4 waves
        k.wgSize = 256;
        static const char byte = 'x';
        k.program = [&sys, ordering,
                     times](gpu::WavefrontCtx &ctx) -> sim::Task<> {
            auto blocking_inv = inv(Granularity::WorkGroup,
                                    Ordering::Strong, Blocking::Blocking);
            const auto fd =
                co_await sys.gpuSys().open(ctx, blocking_inv, "/o", 1);
            auto i = inv(Granularity::WorkGroup, ordering,
                         Blocking::Blocking);
            co_await sys.gpuSys().pwrite(ctx, i, static_cast<int>(fd),
                                         &byte, 1, 0);
            if (ctx.isGroupLeader())
                times->leaderCallDone = ctx.sim().now();
            times->earliestWaveDone =
                std::min(times->earliestWaveDone, ctx.sim().now());
        };
        sys.launchGpuAndDrain(std::move(k));
        sys.run();
        return *times;
    };
    const Times strong = run(Ordering::Strong);
    const Times relaxed = run(Ordering::Relaxed);
    // Strong: nobody retires before the leader's call completes.
    EXPECT_GE(strong.earliestWaveDone, strong.leaderCallDone);
    // Relaxed: non-leader waves retire strictly earlier.
    EXPECT_LT(relaxed.earliestWaveDone, relaxed.leaderCallDone);
}

TEST(GenesysEndToEnd, MultiShardAreaWritesAllDataAndDrainsPerShard)
{
    // The smallConfig pipeline again, but with the syscall area split
    // into one shard per CU: results are identical (the file sees all
    // the bytes) and the drain leaves every shard quiescent.
    SystemConfig cfg = smallConfig();
    cfg.genesys.areaShards = 2; // one per CU
    System sys(cfg);
    sys.kernel().vfs().createFile("/ms");
    gpu::KernelLaunch k;
    k.workItems = 8 * 64;
    k.wgSize = 64;
    k.program = [&sys](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        auto i = inv(Granularity::WorkGroup, Ordering::Relaxed,
                     Blocking::Blocking);
        const auto fd = co_await sys.gpuSys().open(ctx, i, "/ms", 1);
        co_await sys.gpuSys().pwrite(ctx, i, static_cast<int>(fd),
                                     "y", 1, ctx.workgroupId());
    };
    sys.launchGpuAndDrain(std::move(k));
    sys.run();

    auto *f = static_cast<osk::RegularFile *>(
        sys.kernel().vfs().resolve("/ms"));
    EXPECT_EQ(f->data().size(), 8u);
    for (std::uint8_t b : f->data())
        EXPECT_EQ(b, 'y');
    // 8 groups x (open + pwrite) processed, split across both shards.
    EXPECT_EQ(sys.host().processedSyscalls(), 16u);
    EXPECT_EQ(sys.syscallArea().processedOnShard(0) +
                  sys.syscallArea().processedOnShard(1),
              16u);
    for (std::uint32_t s = 0; s < 2; ++s) {
        EXPECT_GT(sys.syscallArea().processedOnShard(s), 0u)
            << "shard " << s;
        EXPECT_TRUE(sys.syscallArea().quiescent(s)) << "shard " << s;
    }
    EXPECT_EQ(sys.host().inFlight(), 0u);
}

} // namespace
} // namespace genesys::core
