/**
 * @file
 * gmc GENESYS binding implementation.
 */

#include "gmc.hh"

#include <functional>
#include <memory>
#include <utility>

#include "osk/epoll.hh"
#include "osk/net.hh"
#include "osk/tcp.hh"
#include "osk/vfs.hh"
#include "support/gmc_probe.hh"
#include "support/logging.hh"

namespace genesys::core::gmc
{

using logging::format;

namespace
{

/// Event budget per explored run. Collapsed clean runs execute a few
/// hundred events; a livelocked schedule (e.g. a stranded poller)
/// burns through this quickly and is reported as "stuck".
constexpr std::uint64_t kMaxEventsPerRun = 20'000;
/// Simulated-time horizon per run (collapsed clean runs end far
/// below; polling always advances the clock, so a stuck run walks
/// into one of the two budgets).
constexpr Tick kHorizon = 2'000'000;

/// Static payload bytes: non-blocking requests may outlive the
/// issuing wavefront's coroutine frame, so argument buffers must not
/// live on it.
constexpr char kPayload[] = "abcdefghijklmnopqrstuvwxyz"
                            "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789+/";

constexpr std::int64_t kUnset = INT64_MIN;

/** Cross-wave workload state (alive for the whole run). */
struct Shared
{
    std::vector<std::int64_t> results;
    std::int64_t kernelFd = -1;
};

/** fd values depend on allocation order (schedule-dependent by
 *  design), so the digest only keeps success/failure. */
std::int64_t
normalizeFd(std::int64_t fd)
{
    return fd >= 0 ? 1 : fd;
}

class Fnv1a
{
  public:
    void
    mix(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (value >> (8 * i)) & 0xFF;
            hash_ *= 1099511628211ull;
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 1469598103934665603ull;
};

sim::Task<>
runWave(System &sys, const McConfig mc,
        const std::shared_ptr<Shared> shared, gpu::WavefrontCtx &ctx)
{
    GpuSyscalls &api = sys.gpuSys();
    const std::uint32_t waveSize = ctx.laneCount();
    const std::uint32_t group = ctx.workgroupId();

    // Setup invocations (the open) always use the safest point of the
    // design space; the payload pwrite uses the checked config.
    Invocation setup;
    setup.granularity = Granularity::WorkGroup;
    setup.ordering = Ordering::Strong;
    setup.blocking = Blocking::Blocking;
    setup.waitMode = WaitMode::Polling;

    Invocation payload;
    payload.granularity = mc.granularity;
    payload.ordering = mc.ordering;
    payload.blocking = mc.blocking;
    payload.waitMode = mc.wait;

    if (mc.granularity == Granularity::Kernel) {
        if (group == 0) {
            const std::int64_t fd =
                co_await api.open(ctx, setup, "/gmc/data", 1);
            shared->kernelFd = fd;
            shared->results[0] = normalizeFd(fd);
        }
        // Every wavefront participates in a kernel-granularity
        // invocation; only work-group 0's leader issues (and only it
        // uses the fd argument).
        const std::int64_t ret = co_await api.pwrite(
            ctx, payload, static_cast<int>(shared->kernelFd),
            &kPayload[0], 1, 0);
        if (group == 0)
            shared->results[1] = ret;
        co_return;
    }

    const std::int64_t fd =
        co_await api.open(ctx, setup, "/gmc/data", 1);
    shared->results[group * waveSize] = normalizeFd(fd);

    if (mc.granularity == Granularity::WorkGroup) {
        const std::int64_t ret = co_await api.pwrite(
            ctx, payload, static_cast<int>(fd),
            &kPayload[group % (sizeof(kPayload) - 1)], 1, group);
        shared->results[group * waveSize + 1] = ret;
        co_return;
    }

    // Work-item granularity: every lane issues its own pwrite to a
    // disjoint offset.
    //
    // Both callbacks are hoisted into named locals: a lambda temporary
    // with owning by-value captures inside a co_await full-expression
    // is destroyed twice by GCC 12's coroutine lowering (an uncounted
    // bitwise copy of the closure feeds the std::function conversion,
    // then both frame slots are destroyed), silently dropping a
    // shared_ptr reference. gmc's schedule-invariance oracle found
    // this as a "divergence" on the clean work-item config; gstat's
    // coawait-owning-lambda rule now guards the pattern tree-wide.
    std::function<std::optional<osk::SyscallArgs>(std::uint32_t)>
        laneArgs = [&](std::uint32_t lane) {
            const std::uint32_t item = group * waveSize + lane;
            return std::optional<osk::SyscallArgs>(osk::makeArgs(
                fd, &kPayload[item % (sizeof(kPayload) - 1)], 1,
                static_cast<std::int64_t>(item)));
        };
    std::function<void(std::uint32_t, std::int64_t)> onResult =
        [shared, group, waveSize](std::uint32_t lane,
                                  std::int64_t ret) {
            shared->results[group * waveSize + lane] = ret;
        };
    co_await api.invokeWorkItems(ctx, payload, osk::sysno::pwrite64,
                                 std::move(laneArgs),
                                 std::move(onResult));
}

/**
 * Run @p sys (its tie-breaker installed) under the per-run budgets
 * with the footprint probe on, then apply the shared oracles: panic,
 * stuck (budget exhausted, or tasks beyond the @p idle_tasks service
 * loops still suspended), gsan and per-shard quiescence. @p run names
 * the run and @p lost the likely cause of a stuck one in the detail.
 * @return true when @p out records a violation.
 */
bool
runUnderOracles(System &sys, std::size_t idle_tasks, const char *run,
                const char *lost, sim::gmc::RunOutcome &out)
{
    auto &probe = genesys::gmc::Probe::instance();
    probe.setEnabled(true);
    (void)probe.drain(); // discard pre-run (deterministic) touches

    bool panicked = false;
    std::string what;
    try {
        sys.run(kHorizon, kMaxEventsPerRun);
    } catch (const std::exception &e) {
        panicked = true;
        what = e.what();
    }
    probe.setEnabled(false);
    sys.sim().events().setTieBreaker(nullptr);

    out.endTick = sys.sim().now();
    out.events = sys.sim().events().executedEvents();
    auto violated = [&out](const char *kind, std::string detail) {
        out.violation = true;
        out.kind = kind;
        out.detail = std::move(detail);
        return true;
    };
    if (panicked)
        return violated("panic", what);
    if (!sys.sim().events().empty()) {
        return violated(
            "stuck",
            format("%s exceeded its budget (%llu events, tick %llu): "
                   "livelock or starvation",
                   run, static_cast<unsigned long long>(out.events),
                   static_cast<unsigned long long>(out.endTick)));
    }
    if (sys.sim().liveTasks() > idle_tasks) {
        return violated(
            "stuck",
            format("%zu task(s) beyond the %zu idle service loops still "
                   "suspended with a drained event queue: %s or deadlock",
                   sys.sim().liveTasks() - idle_tasks, idle_tasks, lost));
    }
    if (sys.gsan().reportCount() != 0)
        return violated("gsan", sys.gsan().renderReports());
    for (std::uint32_t s = 0; s < sys.syscallArea().shardCount(); ++s) {
        if (!sys.syscallArea().quiescent(s)) {
            return violated(
                "quiescence",
                format("shard %u has non-Free slots after drain", s));
        }
    }
    return false;
}

} // namespace

std::string
McConfig::name() const
{
    const char *g = granularity == Granularity::WorkItem ? "wi"
                    : granularity == Granularity::WorkGroup ? "wg"
                                                            : "k";
    std::string base =
        format("%s-%s-%s-%s-%ux%ug%u", g,
               ordering == Ordering::Strong ? "strong" : "relaxed",
               blocking == Blocking::Blocking ? "block" : "nonblock",
               wait == WaitMode::Polling ? "poll" : "halt",
               areaShards, workers, groups);
    if (useRings)
        base += format("-ring%u", ringEntries);
    if (mutants.has(Mutant::LostEdge))
        base += "-etlost";
    return base;
}

std::vector<McConfig>
smallMatrix()
{
    std::vector<McConfig> configs;
    auto add = [&configs](Granularity g, Ordering o, Blocking b,
                          WaitMode w, std::uint32_t shards,
                          std::uint32_t workers, std::uint32_t groups) {
        McConfig mc;
        mc.granularity = g;
        mc.ordering = o;
        mc.blocking = b;
        mc.wait = w;
        mc.areaShards = shards;
        mc.workers = workers;
        mc.groups = groups;
        configs.push_back(mc);
    };

    // 1 shard × 1 worker × 1 group: exhaustively explorable; every
    // legal granularity/ordering/blocking/wait combination (work-item
    // implies strong, kernel requires relaxed, wait mode only matters
    // when blocking).
    add(Granularity::WorkItem, Ordering::Strong, Blocking::Blocking,
        WaitMode::Polling, 1, 1, 1);
    add(Granularity::WorkItem, Ordering::Strong, Blocking::Blocking,
        WaitMode::HaltResume, 1, 1, 1);
    add(Granularity::WorkItem, Ordering::Strong, Blocking::NonBlocking,
        WaitMode::Polling, 1, 1, 1);
    add(Granularity::WorkGroup, Ordering::Strong, Blocking::Blocking,
        WaitMode::Polling, 1, 1, 1);
    add(Granularity::WorkGroup, Ordering::Strong, Blocking::Blocking,
        WaitMode::HaltResume, 1, 1, 1);
    add(Granularity::WorkGroup, Ordering::Relaxed, Blocking::Blocking,
        WaitMode::Polling, 1, 1, 1);
    add(Granularity::WorkGroup, Ordering::Relaxed,
        Blocking::NonBlocking, WaitMode::Polling, 1, 1, 1);
    add(Granularity::Kernel, Ordering::Relaxed, Blocking::Blocking,
        WaitMode::Polling, 1, 1, 1);
    add(Granularity::Kernel, Ordering::Relaxed, Blocking::NonBlocking,
        WaitMode::Polling, 1, 1, 1);

    // Multi-actor points (bounded + POR): concurrent groups on one
    // shard, then sharded areas with parallel workers.
    add(Granularity::WorkGroup, Ordering::Strong, Blocking::Blocking,
        WaitMode::Polling, 1, 1, 2);
    add(Granularity::WorkGroup, Ordering::Strong, Blocking::Blocking,
        WaitMode::HaltResume, 1, 1, 2);
    add(Granularity::WorkGroup, Ordering::Strong, Blocking::Blocking,
        WaitMode::Polling, 2, 2, 2);
    add(Granularity::WorkGroup, Ordering::Strong, Blocking::Blocking,
        WaitMode::HaltResume, 2, 2, 2);
    return configs;
}

const McConfig *
configByName(const std::vector<McConfig> &configs,
             const std::string &name)
{
    for (const McConfig &mc : configs) {
        if (mc.name() == name)
            return &mc;
    }
    return nullptr;
}

SystemConfig
collapsedConfig(const McConfig &mc)
{
    SystemConfig cfg;
    cfg.seed = 12345;

    auto &g = cfg.gpu;
    g.numCus = mc.areaShards; // one CU per shard
    g.wavefrontSize = 2;      // two lanes: minimal work-item fan-out
    g.maxWavesPerCu = 2;      // up to two single-wave groups per CU
    g.maxWorkGroupsPerCu = 2;
    g.kernelLaunchLatency = 0;
    g.waveResumeLatency = 0;
    g.dynamicLaunchLatency = 0;
    g.l2HitLatency = 0;
    g.atomicCmpSwap = 0;
    g.atomicSwap = 0;
    g.atomicLoad = 0;
    g.plainLoad = 0;

    cfg.kernel.cpuCores = 2;
    cfg.kernel.workqueueWorkers = mc.workers;
    auto &o = cfg.kernel.params;
    o.syscallBase = 0;
    o.pathComponent = 0;
    o.pageCacheLookup = 0;
    o.mmapBase = 0;
    o.munmapBase = 0;
    o.madviseBase = 0;
    o.perPageRelease = 0;
    o.minorFault = 0;
    o.swapInPerPage = 0;
    o.swapOutPerPage = 0;
    o.udpSendBase = 0;
    o.udpRecvBase = 0;
    o.signalQueue = 0;
    o.signalDeliver = 0;
    o.getrusage = 0;
    o.ioctlBase = 0;
    o.lseek = 0;
    o.workqueueEnqueue = 0;
    o.workerDispatch = 0;
    o.contextSwitch = 0;
    o.interruptDeliver = 0;
    o.interruptHandler = 0;
    o.tcpConnectBase = 0;
    o.tcpSendBase = 0;
    o.tcpRecvBase = 0;
    o.tcpRtt = 0;
    o.tcpRto = 0;
    o.epollCtlBase = 0;
    o.epollWaitBase = 0;
    // tmpfs/net bytes-per-sec stay nonzero (they are divisors). TCP
    // segments carry a 40-byte modeled header, so the wire rate must
    // be high enough that even those round to zero ticks.
    o.netBytesPerSec = 1e18;

    cfg.memBus.requestOverhead = 0;

    auto &gp = cfg.genesys;
    gp.areaShards = mc.areaShards;
    gp.useRings = mc.useRings;
    gp.ringEntries = mc.ringEntries == 0 ? 1 : mc.ringEntries;
    // No grace polling under the model checker: a lingering consumer
    // adds an unbounded tail of poll slices to every schedule, and
    // the mutants whose signature is "batch stranded after the
    // consumer retires" need the consumer to actually retire.
    gp.ringConsumerGrace = 0;
    // The one latency deliberately kept nonzero: polling must advance
    // the clock or a waiting wave could spin forever inside one tick.
    // One GPU cycle rounds up to one tick.
    gp.pollIntervalCycles = 1;
    gp.perLanePopulate = 0;
    gp.l1FlushCost = 0;
    return cfg;
}

sim::gmc::RunFn
scenario(const McConfig &mc)
{
    return [mc](sim::gmc::ScheduleDriver &driver)
               -> sim::gmc::RunOutcome {
        sim::gmc::RunOutcome out;
        const mutant::Scope planted(mc.mutants);
        System sys(collapsedConfig(mc));
        osk::RegularFile *file =
            sys.kernel().vfs().createFile("/gmc/data");
        const std::uint32_t waveSize = sys.config().gpu.wavefrontSize;

        auto shared = std::make_shared<Shared>();
        shared->results.assign(
            static_cast<std::size_t>(mc.groups) * waveSize, kUnset);

        sys.gsan().setEnabled(true);
        sys.sim().events().setTieBreaker(&driver);

        // Service loops (workqueue workers, backend pollers) are
        // perpetual: they idle suspended on their wait queues after a
        // clean drain. Everything spawned beyond this baseline — wave
        // programs, the drain task — must have completed by the end.
        const std::size_t idleTasks = sys.sim().liveTasks();

        gpu::KernelLaunch launch;
        launch.workItems =
            static_cast<std::uint64_t>(mc.groups) * waveSize;
        launch.wgSize = waveSize;
        launch.program = [&sys, mc,
                          shared](gpu::WavefrontCtx &ctx)
            -> sim::Task<> { return runWave(sys, mc, shared, ctx); };
        sys.launchGpuAndDrain(std::move(launch));
        if (runUnderOracles(sys, idleTasks, "run", "lost wakeup", out))
            return out;
        if (sys.syscallArea().ringsEnabled() &&
            !sys.syscallArea().ringsIdle()) {
            out.violation = true;
            out.kind = "quiescence";
            out.detail =
                "SQ entries left published but unconsumed after drain";
            return out;
        }

        Fnv1a digest;
        for (std::int64_t r : shared->results)
            digest.mix(static_cast<std::uint64_t>(r));
        for (std::uint8_t b : file->data())
            digest.mix(b);
        for (std::uint32_t s = 0; s < sys.syscallArea().shardCount();
             ++s) {
            digest.mix(sys.syscallArea().issuedOnShard(s));
            digest.mix(sys.syscallArea().processedOnShard(s));
            if (sys.syscallArea().ringsEnabled()) {
                // Entry counts (not batch shapes) are the
                // schedule-invariant ring outcome.
                digest.mix(sys.syscallArea().sq(s).publishedTotal());
                digest.mix(sys.syscallArea().sq(s).consumedTotal());
            }
        }
        out.digest = digest.value();
        return out;
    };
}

namespace
{

/** Cross-actor state for the gnet echo scenario. Buffers live here
 *  because slot payload reads/writes may outlive a wave's frame. */
struct NetShared
{
    osk::SockAddr addr{1, 9200};
    osk::EpollEvent listenEv{};
    osk::EpollEvent connEv{};
    osk::EpollEvent evs[4]{};
    std::uint8_t srvBuf[64]{};
    std::uint8_t cliBuf[8]{};
    /// rc codes and byte counts from both sides (fds normalized).
    std::int64_t results[8] = {kUnset, kUnset, kUnset, kUnset,
                               kUnset, kUnset, kUnset, kUnset};
    std::uint64_t echoed = 0;
};

/** GPU side: epoll-driven accept + echo loop on one work-group. */
sim::Task<>
runNetServerWave(System &sys, const McConfig mc,
                 const std::shared_ptr<NetShared> ns, int listen_fd,
                 gpu::WavefrontCtx &ctx)
{
    GpuSyscalls &api = sys.gpuSys();
    Invocation inv;
    inv.granularity = Granularity::WorkGroup;
    inv.ordering = mc.ordering;
    inv.blocking = Blocking::Blocking;
    inv.waitMode = mc.wait;

    const std::int64_t epfd = co_await api.epollCreate(ctx, inv);
    ns->results[0] = normalizeFd(epfd);
    ns->listenEv = osk::EpollEvent{
        osk::EPOLLIN_, static_cast<std::uint64_t>(listen_fd)};
    ns->results[1] = co_await api.epollCtl(
        ctx, inv, static_cast<int>(epfd), osk::EPOLL_CTL_ADD_,
        listen_fd, &ns->listenEv);
    ns->results[2] = co_await api.epollWait(
        ctx, inv, static_cast<int>(epfd), ns->evs, 4, -1);
    const std::int64_t cfd =
        co_await api.accept(ctx, inv, listen_fd, nullptr);
    ns->results[3] = normalizeFd(cfd);
    co_await api.epollCtl(ctx, inv, static_cast<int>(epfd),
                          osk::EPOLL_CTL_DEL_, listen_fd, nullptr);
    ns->connEv = osk::EpollEvent{osk::EPOLLIN_,
                                 static_cast<std::uint64_t>(cfd)};
    co_await api.epollCtl(ctx, inv, static_cast<int>(epfd),
                          osk::EPOLL_CTL_ADD_, static_cast<int>(cfd),
                          &ns->connEv);
    for (;;) {
        const std::int64_t n = co_await api.epollWait(
            ctx, inv, static_cast<int>(epfd), ns->evs, 4, -1);
        if (n <= 0)
            break;
        // The GPU libc layer completes short transfers by reissuing
        // the read, so ask for exactly one 4-byte message — a larger
        // count would block until the client sent more bytes.
        const std::int64_t rn = co_await api.read(
            ctx, inv, static_cast<int>(cfd), ns->srvBuf, 4);
        if (rn <= 0)
            break; // EOF: the client half-closed
        ns->echoed += static_cast<std::uint64_t>(rn);
        co_await api.write(ctx, inv, static_cast<int>(cfd),
                           ns->srvBuf, static_cast<std::uint64_t>(rn));
    }
    co_await api.close(ctx, inv, static_cast<int>(cfd));
    co_await api.close(ctx, inv, static_cast<int>(epfd));
    co_await api.close(ctx, inv, listen_fd);
}

/** Host side: connect, one ping, read the echo, half-close, drain. */
sim::Task<>
runNetClient(System &sys, const std::shared_ptr<NetShared> ns)
{
    auto &tcp = sys.kernel().tcp();
    osk::TcpSocket *c = tcp.createSocket();
    const int cid = c->id();
    ns->results[4] = co_await c->connect(ns->addr);
    if (ns->results[4] != 0) {
        tcp.closeSocket(cid);
        co_return;
    }
    ns->results[5] = co_await c->write("ping", 4);
    std::uint64_t got = 0;
    while (got < 4) {
        const std::int64_t rn =
            co_await c->read(ns->cliBuf + got, 4 - got);
        if (rn <= 0)
            break;
        got += static_cast<std::uint64_t>(rn);
    }
    ns->results[6] = static_cast<std::int64_t>(got);
    co_await c->shutdown(osk::SHUT_WR_);
    std::uint8_t tail = 0;
    ns->results[7] = co_await c->read(&tail, 1); // server FIN: EOF
    tcp.closeSocket(cid);
}

} // namespace

sim::gmc::RunFn
netScenario(const McConfig &mc)
{
    return [mc](sim::gmc::ScheduleDriver &driver)
               -> sim::gmc::RunOutcome {
        sim::gmc::RunOutcome out;
        const mutant::Scope planted(mc.mutants);
        System sys(collapsedConfig(mc));
        auto ns = std::make_shared<NetShared>();
        sys.gsan().setEnabled(true);

        // The listener is set up to completion under FIFO order before
        // the tie-breaker is installed, so every schedule starts from
        // the same bound socket (and the client never races listen()).
        std::int64_t listen_fd = -1;
        sys.sim().spawn([](System &s, const std::shared_ptr<NetShared> sh,
                           std::int64_t &fd_out) -> sim::Task<> {
            fd_out = co_await s.kernel().doSyscall(
                s.process(), osk::sysno::socket, osk::makeArgs(2, 1, 0));
            co_await s.kernel().doSyscall(
                s.process(), osk::sysno::bind,
                osk::makeArgs(fd_out, &sh->addr, 8));
            co_await s.kernel().doSyscall(s.process(),
                                          osk::sysno::listen,
                                          osk::makeArgs(fd_out, 4));
        }(sys, ns, listen_fd));
        sys.run();

        sys.sim().events().setTieBreaker(&driver);
        const std::size_t idleTasks = sys.sim().liveTasks();

        const std::uint32_t waveSize = sys.config().gpu.wavefrontSize;
        gpu::KernelLaunch launch;
        launch.workItems = waveSize;
        launch.wgSize = waveSize;
        const int lfd = static_cast<int>(listen_fd);
        launch.program = [&sys, mc, ns,
                          lfd](gpu::WavefrontCtx &ctx) -> sim::Task<> {
            return runNetServerWave(sys, mc, ns, lfd, ctx);
        };
        sys.launchGpuAndDrain(std::move(launch));
        sys.sim().spawn(runNetClient(sys, ns));
        if (runUnderOracles(sys, idleTasks, "net run",
                            "lost epoll wakeup", out))
            return out;

        // Connect-retry style counters (segs sent, refused) are
        // schedule-dependent in general; the digest keeps the
        // schedule-invariant outcome: every rc, the echoed bytes, and
        // the rendezvous counts.
        Fnv1a digest;
        for (std::int64_t r : ns->results)
            digest.mix(static_cast<std::uint64_t>(r));
        for (std::uint64_t i = 0; i < 4; ++i)
            digest.mix(ns->cliBuf[i]);
        digest.mix(ns->echoed);
        digest.mix(sys.kernel().tcp().counters().connects);
        digest.mix(sys.kernel().tcp().counters().accepts);
        out.digest = digest.value();
        return out;
    };
}

namespace
{

/** Cross-actor state for the edge-triggered echo scenario. */
struct EtShared
{
    osk::SockAddr addr{1, 9201};
    osk::EpollEvent listenEv{};
    osk::EpollEvent connEv{};
    osk::EpollEvent evs[4]{};
    std::uint8_t srvBuf[16]{};
    osk::IoVec rxIov[1]{};
    /// Two 4-byte echoes land side by side.
    std::uint8_t cliBuf[8]{};
    std::int64_t results[10] = {kUnset, kUnset, kUnset, kUnset,
                                kUnset, kUnset, kUnset, kUnset,
                                kUnset, kUnset};
    std::uint64_t echoed = 0;
};

/**
 * GPU side: accept one connection, register it EPOLLIN|EPOLLET, and
 * serve it with the strict-ET discipline — one epoll_wait per
 * transition, each wake drained to -EAGAIN with recvmsg(MSG_DONTWAIT)
 * before sleeping again (a byte left queued would keep the level high
 * and suppress every later edge).
 */
sim::Task<>
runEtServerWave(System &sys, const McConfig mc,
                const std::shared_ptr<EtShared> es, int listen_fd,
                gpu::WavefrontCtx &ctx)
{
    GpuSyscalls &api = sys.gpuSys();
    Invocation inv;
    inv.granularity = Granularity::WorkGroup;
    inv.ordering = mc.ordering;
    inv.blocking = Blocking::Blocking;
    inv.waitMode = mc.wait;

    const std::int64_t epfd = co_await api.epollCreate(ctx, inv);
    es->results[0] = normalizeFd(epfd);
    es->listenEv = osk::EpollEvent{
        osk::EPOLLIN_, static_cast<std::uint64_t>(listen_fd)};
    es->results[1] = co_await api.epollCtl(
        ctx, inv, static_cast<int>(epfd), osk::EPOLL_CTL_ADD_,
        listen_fd, &es->listenEv);
    es->results[2] = co_await api.epollWait(
        ctx, inv, static_cast<int>(epfd), es->evs, 4, -1);
    const std::int64_t cfd =
        co_await api.accept(ctx, inv, listen_fd, nullptr);
    es->results[3] = normalizeFd(cfd);
    co_await api.epollCtl(ctx, inv, static_cast<int>(epfd),
                          osk::EPOLL_CTL_DEL_, listen_fd, nullptr);
    es->connEv =
        osk::EpollEvent{osk::EPOLLIN_ | osk::EPOLLET_,
                        static_cast<std::uint64_t>(cfd)};
    co_await api.epollCtl(ctx, inv, static_cast<int>(epfd),
                          osk::EPOLL_CTL_ADD_, static_cast<int>(cfd),
                          &es->connEv);
    bool open = true;
    while (open) {
        const std::int64_t n = co_await api.epollWait(
            ctx, inv, static_cast<int>(epfd), es->evs, 4, -1);
        if (n <= 0)
            break;
        for (;;) {
            es->rxIov[0] = osk::IoVec{
                osk::SyscallArgs::fromPtr(&es->srvBuf[0]),
                sizeof(es->srvBuf)};
            const std::int64_t rn = co_await api.recvmsg(
                ctx, inv, static_cast<int>(cfd), es->rxIov, 1,
                osk::MSG_DONTWAIT_);
            if (rn == -EAGAIN)
                break; // drained: safe to sleep on the next edge
            if (rn <= 0) {
                open = false; // EOF: the client half-closed
                break;
            }
            es->echoed += static_cast<std::uint64_t>(rn);
            co_await api.write(ctx, inv, static_cast<int>(cfd),
                               es->srvBuf,
                               static_cast<std::uint64_t>(rn));
        }
    }
    co_await api.close(ctx, inv, static_cast<int>(cfd));
    co_await api.close(ctx, inv, static_cast<int>(epfd));
    co_await api.close(ctx, inv, listen_fd);
}

/**
 * Host side: two ping/echo rounds, then half-close. Waiting for each
 * echo before the next ping lets the server drain the chain to empty
 * in between, so the second ping is a second genuine readiness edge
 * (strict ET records nothing while data is still queued) and the FIN
 * a third.
 */
sim::Task<>
runEtClient(System &sys, const std::shared_ptr<EtShared> es)
{
    auto &tcp = sys.kernel().tcp();
    osk::TcpSocket *c = tcp.createSocket();
    const int cid = c->id();
    es->results[4] = co_await c->connect(es->addr);
    if (es->results[4] != 0) {
        tcp.closeSocket(cid);
        co_return;
    }
    static const char *const kPings[2] = {"ping", "pong"};
    for (int round = 0; round < 2; ++round) {
        es->results[5 + round * 2] =
            co_await c->write(kPings[round], 4);
        std::uint64_t got = 0;
        while (got < 4) {
            const std::int64_t rn = co_await c->read(
                es->cliBuf + 4 * round + got, 4 - got);
            if (rn <= 0)
                break;
            got += static_cast<std::uint64_t>(rn);
        }
        es->results[6 + round * 2] = static_cast<std::int64_t>(got);
    }
    co_await c->shutdown(osk::SHUT_WR_);
    std::uint8_t tail = 0;
    es->results[9] = co_await c->read(&tail, 1); // server FIN: EOF
    tcp.closeSocket(cid);
}

} // namespace

sim::gmc::RunFn
etNetScenario(const McConfig &mc)
{
    return [mc](sim::gmc::ScheduleDriver &driver)
               -> sim::gmc::RunOutcome {
        sim::gmc::RunOutcome out;
        const mutant::Scope planted(mc.mutants);
        System sys(collapsedConfig(mc));
        auto es = std::make_shared<EtShared>();
        sys.gsan().setEnabled(true);

        // Listener bound under FIFO order before the tie-breaker is
        // installed (see netScenario).
        std::int64_t listen_fd = -1;
        sys.sim().spawn([](System &s, const std::shared_ptr<EtShared> sh,
                           std::int64_t &fd_out) -> sim::Task<> {
            fd_out = co_await s.kernel().doSyscall(
                s.process(), osk::sysno::socket, osk::makeArgs(2, 1, 0));
            co_await s.kernel().doSyscall(
                s.process(), osk::sysno::bind,
                osk::makeArgs(fd_out, &sh->addr, 8));
            co_await s.kernel().doSyscall(s.process(),
                                          osk::sysno::listen,
                                          osk::makeArgs(fd_out, 4));
        }(sys, es, listen_fd));
        sys.run();

        sys.sim().events().setTieBreaker(&driver);
        const std::size_t idleTasks = sys.sim().liveTasks();

        const std::uint32_t waveSize = sys.config().gpu.wavefrontSize;
        gpu::KernelLaunch launch;
        launch.workItems = waveSize;
        launch.wgSize = waveSize;
        const int lfd = static_cast<int>(listen_fd);
        launch.program = [&sys, mc, es,
                          lfd](gpu::WavefrontCtx &ctx) -> sim::Task<> {
            return runEtServerWave(sys, mc, es, lfd, ctx);
        };
        sys.launchGpuAndDrain(std::move(launch));
        sys.sim().spawn(runEtClient(sys, es));
        if (runUnderOracles(sys, idleTasks, "ET net run",
                            "lost readiness edge", out))
            return out;

        // Edge counts can legally vary across schedules (a ping split
        // across wire deliveries yields an extra drained-then-risen
        // transition), so the digest keeps only the schedule-invariant
        // outcome: every rc, both echoes, and the rendezvous counts.
        Fnv1a digest;
        for (std::int64_t r : es->results)
            digest.mix(static_cast<std::uint64_t>(r));
        for (std::uint64_t i = 0; i < 8; ++i)
            digest.mix(es->cliBuf[i]);
        digest.mix(es->echoed);
        digest.mix(sys.kernel().tcp().counters().connects);
        digest.mix(sys.kernel().tcp().counters().accepts);
        out.digest = digest.value();
        return out;
    };
}

sim::gmc::RunFn
ringScenario(const McConfig &mc)
{
    McConfig ring = mc;
    ring.useRings = true;
    if (ring.ringEntries == 0)
        ring.ringEntries = 1;
    return scenario(ring);
}

} // namespace genesys::core::gmc
