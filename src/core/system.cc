/**
 * @file
 * System façade implementation.
 */

#include "system.hh"

#include <cstdlib>

#include "osk/sysfs.hh"
#include "support/logging.hh"

namespace genesys::core
{

System::System(const SystemConfig &config)
    : config_(config), sim_(std::make_unique<sim::Sim>(config.seed)),
      memBus_(std::make_unique<mem::MemBus>(sim_->events(),
                                            config.memBus)),
      kernel_(std::make_unique<osk::Kernel>(*sim_, config.kernel)),
      proc_(&kernel_->createProcess()),
      gpu_(std::make_unique<gpu::GpuDevice>(*sim_, config.gpu,
                                            memBus_.get())),
      area_(std::make_unique<SyscallArea>(config.gpu, config.genesys)),
      host_(std::make_unique<GenesysHost>(*kernel_, *gpu_, *area_,
                                          *proc_, config.genesys)),
      client_(std::make_unique<GpuSyscalls>(*gpu_, *area_,
                                            config.genesys)),
      gsan_(std::make_unique<gsan::Sanitizer>())
{
    // Capture heap-stable pointers, never `this`: System is movable.
    sim::Sim *sp = sim_.get();
    gsan_->setNow([sp]() -> std::uint64_t { return sp->now(); });
    gpu_->setSanitizer(gsan_.get());
    area_->attachSanitizer(gsan_.get());
    host_->setSanitizer(gsan_.get());
    client_->setSanitizer(gsan_.get());
    kernel_->epoll().setSanitizer(gsan_.get());

    // Readiness wake fanout accounting: map each woken GPU waiter
    // (cookie = hardware wave slot) to its syscall-area shard. Host
    // waiters carry kEpollHostWaiter and are not shard-attributed.
    epollShardWakes_ = std::make_shared<std::vector<std::uint64_t>>(
        area_->shardCount(), 0);
    SyscallArea *ap = area_.get();
    std::shared_ptr<std::vector<std::uint64_t>> wakes = epollShardWakes_;
    kernel_->epoll().setWakeObserver([ap, wakes](std::uint64_t cookie) {
        if (cookie == osk::kEpollHostWaiter)
            return;
        const std::uint32_t shard =
            ap->shardOfWave(static_cast<std::uint32_t>(cookie));
        if (shard < wakes->size())
            ++(*wakes)[shard];
    });

    installGsanSysfs();
    installShardSysfs();
    installNetSysfs();
    installRingSysfs();

    // GENESYS_GSAN=1 turns the sanitizer on for a whole test/bench
    // run without touching code (the gsan-enabled CI job uses this).
    const char *env = std::getenv("GENESYS_GSAN");
    if (env != nullptr && env[0] != '\0' &&
        !(env[0] == '0' && env[1] == '\0')) {
        gsan_->setEnabled(true);
    }
}

System::~System()
{
    if (sim_) // moved-from
        sim_->destroyRoots();
}

void
System::installGsanSysfs()
{
    // Mirrors the fault subsystem's /sys/genesys/fault/ knob surface.
    gsan::Sanitizer *g = gsan_.get();
    kernel_->vfs().install(
        "/sys/genesys/gsan/enabled",
        std::make_shared<osk::SysfsFile>(
            [g]() -> std::uint64_t { return g->enabled() ? 1 : 0; },
            [g](std::uint64_t v) {
                if (v > 1)
                    return false;
                g->setEnabled(v == 1);
                return true;
            }));
    kernel_->vfs().install(
        "/sys/genesys/gsan/max_reports",
        std::make_shared<osk::SysfsFile>(
            [g]() -> std::uint64_t { return g->maxStoredReports(); },
            [g](std::uint64_t v) {
                if (v > UINT32_MAX)
                    return false;
                g->setMaxStoredReports(static_cast<std::uint32_t>(v));
                return true;
            }));
    auto counter = [this, g](const std::string &name,
                             std::function<std::uint64_t()> read) {
        kernel_->vfs().install(
            "/sys/genesys/gsan/" + name,
            std::make_shared<osk::SysfsFile>(
                std::move(read), [](std::uint64_t) { return false; }));
    };
    counter("reports", [g] { return g->reportCount(); });
    counter("payload_races",
            [g] { return g->countOf(gsan::ReportKind::PayloadRace); });
    counter("ordering_violations", [g] {
        return g->countOf(gsan::ReportKind::OrderingViolation);
    });
    counter("lost_wakeups",
            [g] { return g->countOf(gsan::ReportKind::LostWakeup); });
}

void
System::installShardSysfs()
{
    // The service-path knob surface (DESIGN.md §10): shard geometry,
    // per-shard counters, and the workqueue worker-count knob, all
    // beside the coalescing files GenesysHost installs.
    auto ro = [this](const std::string &path,
                     std::function<std::uint64_t()> read) {
        kernel_->vfs().install(
            path, std::make_shared<osk::SysfsFile>(
                      std::move(read),
                      [](std::uint64_t) { return false; }));
    };
    SyscallArea *area = area_.get();
    GenesysHost *host = host_.get();
    ro("/sys/genesys/shards/count",
       [area] { return std::uint64_t(area->shardCount()); });
    for (std::uint32_t s = 0; s < area_->shardCount(); ++s) {
        const std::string dir =
            logging::format("/sys/genesys/shards/%u/", s);
        ro(dir + "issued",
           [area, s] { return area->issuedOnShard(s); });
        ro(dir + "processed",
           [area, s] { return area->processedOnShard(s); });
        ro(dir + "interrupts",
           [host, s] { return host->interruptsOnShard(s); });
    }

    osk::WorkQueue *wq = &kernel_->workqueue();
    kernel_->vfs().install(
        "/sys/genesys/workqueue/max_workers",
        std::make_shared<osk::SysfsFile>(
            [wq] { return std::uint64_t(wq->maxWorkers()); },
            [wq](std::uint64_t v) {
                if (v == 0 || v > wq->workerCap())
                    return false;
                wq->setMaxWorkers(static_cast<std::uint32_t>(v));
                return true;
            }));
    kernel_->vfs().install(
        "/sys/genesys/workqueue/queue_bound",
        std::make_shared<osk::SysfsFile>(
            [wq] { return std::uint64_t(wq->queueBound()); },
            [wq](std::uint64_t v) {
                if (v == 0 || v > UINT32_MAX)
                    return false;
                wq->setQueueBound(static_cast<std::uint32_t>(v));
                return true;
            }));
    ro("/sys/genesys/workqueue/steals",
       [wq] { return wq->steals(); });
    ro("/sys/genesys/workqueue/spills",
       [wq] { return wq->spills(); });
}

void
System::installNetSysfs()
{
    // gnet counter surface (DESIGN.md §12): UDP delivery/drop, TCP
    // wire/backpressure, and epoll wait/wake statistics, plus the
    // per-shard readiness-wake fanout next to the shard dirs above.
    auto ro = [this](const std::string &path,
                     std::function<std::uint64_t()> read) {
        kernel_->vfs().install(
            path, std::make_shared<osk::SysfsFile>(
                      std::move(read),
                      [](std::uint64_t) { return false; }));
    };
    osk::UdpStack *udp = &kernel_->udp();
    osk::TcpStack *tcp = &kernel_->tcp();
    osk::EpollSystem *ep = &kernel_->epoll();

    ro("/sys/genesys/net/udp/delivered",
       [udp] { return udp->deliveredDatagrams(); });
    ro("/sys/genesys/net/udp/unroutable",
       [udp] { return udp->unroutable(); });
    ro("/sys/genesys/net/udp/dropped", [udp] { return udp->dropped(); });

    ro("/sys/genesys/net/tcp/segs_sent",
       [tcp] { return tcp->counters().segsSent; });
    ro("/sys/genesys/net/tcp/segs_lost",
       [tcp] { return tcp->counters().segsLost; });
    ro("/sys/genesys/net/tcp/retransmits",
       [tcp] { return tcp->counters().retransmits; });
    ro("/sys/genesys/net/tcp/backpressure_stalls",
       [tcp] { return tcp->counters().backpressureStalls; });
    ro("/sys/genesys/net/tcp/accepts",
       [tcp] { return tcp->counters().accepts; });
    ro("/sys/genesys/net/tcp/connects",
       [tcp] { return tcp->counters().connects; });
    ro("/sys/genesys/net/tcp/refused",
       [tcp] { return tcp->counters().refused; });
    ro("/sys/genesys/net/tcp/resets",
       [tcp] { return tcp->counters().resets; });
    // The zero-copy ledger: a serving path proves it never copied on
    // its hot path by showing copied_bytes stayed flat while
    // zerocopy_bytes carried the traffic.
    ro("/sys/genesys/net/tcp/copied_bytes",
       [tcp] { return tcp->counters().copiedBytes; });
    ro("/sys/genesys/net/tcp/zerocopy_bytes",
       [tcp] { return tcp->counters().zerocopyBytes; });

    // The loss-rate knob is writable (tests and the ablation sweep set
    // it from simulated code, mirroring the fault-injection knobs).
    kernel_->vfs().install(
        "/sys/genesys/net/tcp/loss_ppm",
        std::make_shared<osk::SysfsFile>(
            [tcp] { return std::uint64_t(tcp->lossPpm()); },
            [tcp](std::uint64_t v) {
                if (v > 1000000)
                    return false;
                tcp->setLossPpm(static_cast<std::uint32_t>(v));
                return true;
            }));

    ro("/sys/genesys/net/epoll/waits", [ep] { return ep->waits(); });
    ro("/sys/genesys/net/epoll/wakeups",
       [ep] { return ep->wakeups(); });
    ro("/sys/genesys/net/epoll/notifies",
       [ep] { return ep->notifies(); });
    ro("/sys/genesys/net/epoll/timeouts",
       [ep] { return ep->timeouts(); });
    ro("/sys/genesys/net/epoll/edges_recorded",
       [ep] { return ep->edgesRecorded(); });
    ro("/sys/genesys/net/epoll/edges_delivered",
       [ep] { return ep->edgesDelivered(); });
    std::shared_ptr<std::vector<std::uint64_t>> wakes = epollShardWakes_;
    for (std::uint32_t s = 0; s < area_->shardCount(); ++s) {
        ro(logging::format("/sys/genesys/net/epoll/shards/%u/wakeups",
                           s),
           [wakes, s] { return (*wakes)[s]; });
    }
}

void
System::installRingSysfs()
{
    // Ring submission knob surface (DESIGN.md §13): mode/geometry plus
    // per-shard SQ/CQ cursors and batch counters, beside the shard
    // dirs. Mode and geometry are fixed at construction (rings are
    // sized with the area), so both files are read-only.
    auto ro = [this](const std::string &path,
                     std::function<std::uint64_t()> read) {
        kernel_->vfs().install(
            path, std::make_shared<osk::SysfsFile>(
                      std::move(read),
                      [](std::uint64_t) { return false; }));
    };
    SyscallArea *area = area_.get();
    GenesysHost *host = host_.get();
    GpuSyscalls *client = client_.get();
    ro("/sys/genesys/rings/enabled",
       [area] { return area->ringsEnabled() ? 1ull : 0ull; });
    ro("/sys/genesys/rings/entries",
       [area] { return std::uint64_t(area->sq(0).capacity()); });
    ro("/sys/genesys/rings/batches",
       [area] { return area->ringBatchesTotal(); });
    ro("/sys/genesys/rings/entries_submitted",
       [area] { return area->ringEntriesTotal(); });
    ro("/sys/genesys/rings/doorbells_suppressed",
       [host] { return host->ringDoorbellsSuppressed(); });
    ro("/sys/genesys/rings/cq_posted",
       [host] { return host->ringCqPosted(); });
    ro("/sys/genesys/rings/sq_full_retries",
       [client] { return client->ringFullRetries(); });
    // Consumer lingering knobs are runtime-writable (like the
    // coalescing window): the next consume task reads them live.
    GenesysParams *gp = &host_->params();
    kernel_->vfs().install(
        "/sys/genesys/rings/consumer_grace_ns",
        std::make_shared<osk::SysfsFile>(
            [gp]() -> std::uint64_t { return gp->ringConsumerGrace; },
            [gp](std::uint64_t v) {
                gp->ringConsumerGrace = v;
                return true;
            }));
    kernel_->vfs().install(
        "/sys/genesys/rings/consumer_poll_ns",
        std::make_shared<osk::SysfsFile>(
            [gp]() -> std::uint64_t { return gp->ringConsumerPoll; },
            [gp](std::uint64_t v) {
                gp->ringConsumerPoll = v;
                return true;
            }));
    for (std::uint32_t s = 0; s < area_->shardCount(); ++s) {
        const std::string dir =
            logging::format("/sys/genesys/rings/%u/", s);
        ro(dir + "sq_head",
           [area, s] { return area->sq(s).loadHeadAcquire(); });
        ro(dir + "sq_tail",
           [area, s] { return area->sq(s).loadTailAcquire(); });
        ro(dir + "cq_head",
           [area, s] { return area->cq(s).loadHeadAcquire(); });
        ro(dir + "cq_tail",
           [area, s] { return area->cq(s).loadTailAcquire(); });
        ro(dir + "batches",
           [area, s] { return area->ringBatchesOnShard(s); });
        ro(dir + "entries",
           [area, s] { return area->ringEntriesOnShard(s); });
        ro(dir + "cq_reclaims",
           [area, s] { return area->cq(s).reclaims(); });
    }
}

sim::Task<>
System::launchDrainTask(gpu::KernelLaunch launch)
{
    co_await gpu_->launch(std::move(launch));
    co_await host_->drain();
}

std::string
System::statsReport() const
{
    std::string out;
    auto line = [&out](const char *name, double v) {
        out += logging::format("%-40s %.6g\n", name, v);
    };
    line("gpu.kernels_launched",
         static_cast<double>(gpu_->launchedKernels()));
    line("gpu.workgroups_launched",
         static_cast<double>(gpu_->launchedWorkGroups()));
    line("gpu.wavefronts_launched",
         static_cast<double>(gpu_->launchedWavefronts()));
    line("gpu.l2_hits", static_cast<double>(gpu_->l2().hits()));
    line("gpu.l2_misses", static_cast<double>(gpu_->l2().misses()));
    line("genesys.requests_issued",
         static_cast<double>(client_->issuedRequests()));
    line("genesys.interrupts",
         static_cast<double>(host_->interrupts()));
    line("genesys.batches", static_cast<double>(host_->batches()));
    line("genesys.syscalls_processed",
         static_cast<double>(host_->processedSyscalls()));
    line("genesys.batch_size_mean", host_->batchSizes().mean());
    line("genesys.syscall_retries",
         static_cast<double>(client_->syscallRetries()));
    line("genesys.short_transfers",
         static_cast<double>(client_->shortTransfers()));
    line("genesys.host_restarts",
         static_cast<double>(host_->hostRestarts()));
    line("genesys.area_shards",
         static_cast<double>(area_->shardCount()));
    line("genesys.rings_enabled", area_->ringsEnabled() ? 1.0 : 0.0);
    line("genesys.ring_batches",
         static_cast<double>(area_->ringBatchesTotal()));
    line("genesys.ring_entries",
         static_cast<double>(area_->ringEntriesTotal()));
    line("genesys.ring_batch_occupancy", area_->ringBatchOccupancy());
    line("genesys.ring_doorbells_suppressed",
         static_cast<double>(host_->ringDoorbellsSuppressed()));
    line("genesys.ring_cq_posted",
         static_cast<double>(host_->ringCqPosted()));
    line("osk.faults_injected",
         static_cast<double>(kernel_->faults().injected()));
    line("gsan.enabled", gsan_->enabled() ? 1.0 : 0.0);
    line("gsan.reports", static_cast<double>(gsan_->reportCount()));
    line("gsan.payload_races",
         static_cast<double>(
             gsan_->countOf(gsan::ReportKind::PayloadRace)));
    line("gsan.ordering_violations",
         static_cast<double>(
             gsan_->countOf(gsan::ReportKind::OrderingViolation)));
    line("gsan.lost_wakeups",
         static_cast<double>(
             gsan_->countOf(gsan::ReportKind::LostWakeup)));
    line("gsan.threads", static_cast<double>(gsan_->threadCount()));
    line("net.udp_delivered",
         static_cast<double>(kernel_->udp().deliveredDatagrams()));
    line("net.udp_dropped",
         static_cast<double>(kernel_->udp().dropped()));
    line("net.tcp_segs_sent",
         static_cast<double>(kernel_->tcp().counters().segsSent));
    line("net.tcp_retransmits",
         static_cast<double>(kernel_->tcp().counters().retransmits));
    line("net.tcp_backpressure_stalls",
         static_cast<double>(
             kernel_->tcp().counters().backpressureStalls));
    line("net.tcp_resets",
         static_cast<double>(kernel_->tcp().counters().resets));
    line("net.tcp_copied_bytes",
         static_cast<double>(kernel_->tcp().counters().copiedBytes));
    line("net.tcp_zerocopy_bytes",
         static_cast<double>(
             kernel_->tcp().counters().zerocopyBytes));
    line("net.epoll_waits",
         static_cast<double>(kernel_->epoll().waits()));
    line("net.epoll_wakeups",
         static_cast<double>(kernel_->epoll().wakeups()));
    line("net.epoll_notifies",
         static_cast<double>(kernel_->epoll().notifies()));
    line("mem.gpu_bytes",
         static_cast<double>(memBus_->bytesMoved("gpu")));
    line("mem.cpu_bytes",
         static_cast<double>(memBus_->bytesMoved("cpu")));
    line("cpu.utilization",
         kernel_->cpus().utilization(0, sim_->now()));
    line("osk.workqueue_tasks",
         static_cast<double>(kernel_->workqueue().executedTasks()));
    line("osk.workqueue_max_workers",
         static_cast<double>(kernel_->workqueue().maxWorkers()));
    line("osk.workqueue_steals",
         static_cast<double>(kernel_->workqueue().steals()));
    line("osk.workqueue_spills",
         static_cast<double>(kernel_->workqueue().spills()));
    line("sim.events_executed",
         static_cast<double>(sim_->events().executedEvents()));
    line("sim.final_tick", static_cast<double>(sim_->now()));
    return out;
}

std::string
System::platformString() const
{
    return logging::format(
        "cpu: %u cores | gpu: %u CUs x %u waves x %u lanes @ %.0f MHz | "
        "gpu L2: %llu KiB | mem: %.1f GB/s | syscall area: %llu KiB "
        "(%zu slots x %u B)",
        config_.kernel.cpuCores, config_.gpu.numCus,
        config_.gpu.maxWavesPerCu, config_.gpu.wavefrontSize,
        config_.gpu.clockHz / 1e6,
        static_cast<unsigned long long>(config_.gpu.l2Bytes / 1024),
        config_.memBus.bytesPerSec / 1e9,
        static_cast<unsigned long long>(area_->areaBytes() / 1024),
        area_->slotCount(), config_.genesys.slotBytes);
}

} // namespace genesys::core
