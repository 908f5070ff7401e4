/**
 * @file
 * System façade implementation, and the one table of counters and
 * knobs that both the /sys/genesys tree and statsReport() come from.
 */

#include "system.hh"

#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <vector>

#include "osk/sysfs.hh"
#include "support/logging.hh"

namespace genesys::core
{

/**
 * What the counter table reads: heap-stable component pointers (rows
 * never capture `this`, because System is movable) plus the per-shard
 * readiness-wake fanout the epoll observer fills.
 */
struct SystemParts
{
    sim::Sim *sim;
    mem::MemBus *memBus;
    osk::Kernel *kernel;
    gpu::GpuDevice *gpu;
    SyscallArea *area;
    GenesysHost *host;
    GpuSyscalls *client;
    gsan::Sanitizer *gsan;
    osk::UdpStack *udp;
    osk::TcpStack *tcp;
    osk::EpollSystem *epoll;
    osk::WorkQueue *wq;
    std::vector<std::uint64_t> epollShardWakes;
};

namespace
{

/**
 * One counter or knob, declared once. A row with a report name is a
 * statsReport() line; a row with a path is a /sys/genesys file; many
 * rows are both. A "%u" in the path makes one file per syscall-area
 * shard, and read() gets the shard.
 */
struct Row
{
    const char *report; ///< statsReport() name, or nullptr
    const char *path;   ///< /sys/genesys file, or nullptr
    std::function<std::uint64_t(const SystemParts &, std::uint32_t)> read;
    /// Report-only rows whose value is a ratio, not a count.
    std::function<double(const SystemParts &)> ratio = nullptr;
    /// Knobs only: applies a write inside [lo, hi]; false refuses it.
    std::function<bool(const SystemParts &, std::uint64_t)> write =
        nullptr;
    std::uint64_t lo = 0;
    std::uint64_t hi = UINT64_MAX;
};

// statsReport() prints the named rows in this order. DESIGN.md says
// why the counters exist: §7 coalescing, §9 gsan, §10 shards and
// workqueue, §12 net, §13 rings.
const Row kRows[] = {
    {"gpu.kernels_launched", nullptr,
     [](auto &p, auto) { return p.gpu->launchedKernels(); }},
    {"gpu.workgroups_launched", nullptr,
     [](auto &p, auto) { return p.gpu->launchedWorkGroups(); }},
    {"gpu.wavefronts_launched", nullptr,
     [](auto &p, auto) { return p.gpu->launchedWavefronts(); }},
    {"gpu.l2_hits", nullptr,
     [](auto &p, auto) { return p.gpu->l2().hits(); }},
    {"gpu.l2_misses", nullptr,
     [](auto &p, auto) { return p.gpu->l2().misses(); }},

    // The paper's coalescing knobs (Section VI), read live by the
    // interrupt backend on the next arrival.
    {nullptr, "/sys/genesys/coalesce_window_ns",
     [](auto &p, auto) { return p.host->coalesceWindow(); }, nullptr,
     [](auto &p, std::uint64_t v) {
         p.host->params().coalesceWindow = v;
         return true;
     }},
    {nullptr, "/sys/genesys/coalesce_max_batch",
     [](auto &p, auto) { return p.host->coalesceMaxBatch(); }, nullptr,
     [](auto &p, std::uint64_t v) {
         p.host->params().coalesceMaxBatch = static_cast<std::uint32_t>(v);
         return true;
     },
     1, UINT32_MAX},
    {"genesys.requests_issued", nullptr,
     [](auto &p, auto) { return p.client->issuedRequests(); }},
    {"genesys.interrupts", nullptr,
     [](auto &p, auto) { return p.host->interrupts(); }},
    {"genesys.batches", nullptr,
     [](auto &p, auto) { return p.host->batches(); }},
    {"genesys.syscalls_processed", nullptr,
     [](auto &p, auto) { return p.host->processedSyscalls(); }},
    {"genesys.batch_size_mean", nullptr, nullptr,
     [](auto &p) { return p.host->batchSizes().mean(); }},
    {"genesys.syscall_retries", nullptr,
     [](auto &p, auto) { return p.client->syscallRetries(); }},
    {"genesys.short_transfers", nullptr,
     [](auto &p, auto) { return p.client->shortTransfers(); }},
    {"genesys.host_restarts", nullptr,
     [](auto &p, auto) { return p.host->hostRestarts(); }},

    // Shard geometry and per-shard service counters.
    {"genesys.area_shards", "/sys/genesys/shards/count",
     [](auto &p, auto) { return p.area->shardCount(); }},
    {nullptr, "/sys/genesys/shards/%u/issued",
     [](auto &p, auto s) { return p.area->issuedOnShard(s); }},
    {nullptr, "/sys/genesys/shards/%u/processed",
     [](auto &p, auto s) { return p.area->processedOnShard(s); }},
    {nullptr, "/sys/genesys/shards/%u/interrupts",
     [](auto &p, auto s) { return p.host->interruptsOnShard(s); }},

    // Ring submission. Mode and geometry are fixed at construction
    // (rings are sized with the area), so both files are read-only.
    {"genesys.rings_enabled", "/sys/genesys/rings/enabled",
     [](auto &p, auto) { return p.area->ringsEnabled(); }},
    {nullptr, "/sys/genesys/rings/entries",
     [](auto &p, auto) { return p.area->sq(0).capacity(); }},
    {"genesys.ring_batches", "/sys/genesys/rings/batches",
     [](auto &p, auto) { return p.area->ringBatchesTotal(); }},
    {"genesys.ring_entries", "/sys/genesys/rings/entries_submitted",
     [](auto &p, auto) { return p.area->ringEntriesTotal(); }},
    {"genesys.ring_batch_occupancy", nullptr, nullptr,
     [](auto &p) { return p.area->ringBatchOccupancy(); }},
    {"genesys.ring_doorbells_suppressed",
     "/sys/genesys/rings/doorbells_suppressed",
     [](auto &p, auto) { return p.host->ringDoorbellsSuppressed(); }},
    {"genesys.ring_cq_posted", "/sys/genesys/rings/cq_posted",
     [](auto &p, auto) { return p.host->ringCqPosted(); }},
    {nullptr, "/sys/genesys/rings/sq_full_retries",
     [](auto &p, auto) { return p.client->ringFullRetries(); }},
    // Consumer lingering is runtime-writable, like the coalescing
    // window: the next consume task reads it live.
    {nullptr, "/sys/genesys/rings/consumer_grace_ns",
     [](auto &p, auto) { return p.host->params().ringConsumerGrace; },
     nullptr,
     [](auto &p, std::uint64_t v) {
         p.host->params().ringConsumerGrace = v;
         return true;
     }},
    {nullptr, "/sys/genesys/rings/consumer_poll_ns",
     [](auto &p, auto) { return p.host->params().ringConsumerPoll; },
     nullptr,
     [](auto &p, std::uint64_t v) {
         p.host->params().ringConsumerPoll = v;
         return true;
     }},
    {nullptr, "/sys/genesys/rings/%u/sq_head",
     [](auto &p, auto s) { return p.area->sq(s).loadHeadAcquire(); }},
    {nullptr, "/sys/genesys/rings/%u/sq_tail",
     [](auto &p, auto s) { return p.area->sq(s).loadTailAcquire(); }},
    {nullptr, "/sys/genesys/rings/%u/cq_head",
     [](auto &p, auto s) { return p.area->cq(s).loadHeadAcquire(); }},
    {nullptr, "/sys/genesys/rings/%u/cq_tail",
     [](auto &p, auto s) { return p.area->cq(s).loadTailAcquire(); }},
    {nullptr, "/sys/genesys/rings/%u/batches",
     [](auto &p, auto s) { return p.area->ringBatchesOnShard(s); }},
    {nullptr, "/sys/genesys/rings/%u/entries",
     [](auto &p, auto s) { return p.area->ringEntriesOnShard(s); }},
    {nullptr, "/sys/genesys/rings/%u/cq_reclaims",
     [](auto &p, auto s) { return p.area->cq(s).reclaims(); }},

    {"osk.faults_injected", nullptr,
     [](auto &p, auto) { return p.kernel->faults().injected(); }},

    // gsan, mirroring the fault subsystem's knob surface.
    {"gsan.enabled", "/sys/genesys/gsan/enabled",
     [](auto &p, auto) { return p.gsan->enabled(); }, nullptr,
     [](auto &p, std::uint64_t v) {
         p.gsan->setEnabled(v == 1);
         return true;
     },
     0, 1},
    {nullptr, "/sys/genesys/gsan/max_reports",
     [](auto &p, auto) { return p.gsan->maxStoredReports(); }, nullptr,
     [](auto &p, std::uint64_t v) {
         p.gsan->setMaxStoredReports(static_cast<std::uint32_t>(v));
         return true;
     },
     0, UINT32_MAX},
    {"gsan.reports", "/sys/genesys/gsan/reports",
     [](auto &p, auto) { return p.gsan->reportCount(); }},
    {"gsan.payload_races", "/sys/genesys/gsan/payload_races",
     [](auto &p, auto) {
         return p.gsan->countOf(gsan::ReportKind::PayloadRace);
     }},
    {"gsan.ordering_violations", "/sys/genesys/gsan/ordering_violations",
     [](auto &p, auto) {
         return p.gsan->countOf(gsan::ReportKind::OrderingViolation);
     }},
    {"gsan.lost_wakeups", "/sys/genesys/gsan/lost_wakeups",
     [](auto &p, auto) {
         return p.gsan->countOf(gsan::ReportKind::LostWakeup);
     }},
    {"gsan.threads", nullptr,
     [](auto &p, auto) { return p.gsan->threadCount(); }},

    // gnet: UDP delivery/drop, TCP wire and backpressure, epoll waits
    // and wakes.
    {"net.udp_delivered", "/sys/genesys/net/udp/delivered",
     [](auto &p, auto) { return p.udp->deliveredDatagrams(); }},
    {nullptr, "/sys/genesys/net/udp/unroutable",
     [](auto &p, auto) { return p.udp->unroutable(); }},
    {"net.udp_dropped", "/sys/genesys/net/udp/dropped",
     [](auto &p, auto) { return p.udp->dropped(); }},
    {"net.tcp_segs_sent", "/sys/genesys/net/tcp/segs_sent",
     [](auto &p, auto) { return p.tcp->counters().segsSent; }},
    {nullptr, "/sys/genesys/net/tcp/segs_lost",
     [](auto &p, auto) { return p.tcp->counters().segsLost; }},
    {"net.tcp_retransmits", "/sys/genesys/net/tcp/retransmits",
     [](auto &p, auto) { return p.tcp->counters().retransmits; }},
    {"net.tcp_backpressure_stalls", "/sys/genesys/net/tcp/backpressure_stalls",
     [](auto &p, auto) { return p.tcp->counters().backpressureStalls; }},
    {nullptr, "/sys/genesys/net/tcp/accepts",
     [](auto &p, auto) { return p.tcp->counters().accepts; }},
    {nullptr, "/sys/genesys/net/tcp/connects",
     [](auto &p, auto) { return p.tcp->counters().connects; }},
    {nullptr, "/sys/genesys/net/tcp/refused",
     [](auto &p, auto) { return p.tcp->counters().refused; }},
    {"net.tcp_resets", "/sys/genesys/net/tcp/resets",
     [](auto &p, auto) { return p.tcp->counters().resets; }},
    // The zero-copy ledger: a serving path proves it never copied on
    // its hot path by showing copied_bytes stayed flat while
    // zerocopy_bytes carried the traffic.
    {"net.tcp_copied_bytes", "/sys/genesys/net/tcp/copied_bytes",
     [](auto &p, auto) { return p.tcp->counters().copiedBytes; }},
    {"net.tcp_zerocopy_bytes", "/sys/genesys/net/tcp/zerocopy_bytes",
     [](auto &p, auto) { return p.tcp->counters().zerocopyBytes; }},
    // The loss-rate knob is writable (tests and the ablation sweep set
    // it from simulated code, mirroring the fault-injection knobs).
    {nullptr, "/sys/genesys/net/tcp/loss_ppm",
     [](auto &p, auto) { return p.tcp->lossPpm(); }, nullptr,
     [](auto &p, std::uint64_t v) {
         p.tcp->setLossPpm(static_cast<std::uint32_t>(v));
         return true;
     },
     0, 1'000'000},
    {"net.epoll_waits", "/sys/genesys/net/epoll/waits",
     [](auto &p, auto) { return p.epoll->waits(); }},
    {"net.epoll_wakeups", "/sys/genesys/net/epoll/wakeups",
     [](auto &p, auto) { return p.epoll->wakeups(); }},
    {"net.epoll_notifies", "/sys/genesys/net/epoll/notifies",
     [](auto &p, auto) { return p.epoll->notifies(); }},
    {nullptr, "/sys/genesys/net/epoll/timeouts",
     [](auto &p, auto) { return p.epoll->timeouts(); }},
    {nullptr, "/sys/genesys/net/epoll/edges_recorded",
     [](auto &p, auto) { return p.epoll->edgesRecorded(); }},
    {nullptr, "/sys/genesys/net/epoll/edges_delivered",
     [](auto &p, auto) { return p.epoll->edgesDelivered(); }},
    {nullptr, "/sys/genesys/net/epoll/shards/%u/wakeups",
     [](auto &p, auto s) { return p.epollShardWakes[s]; }},

    {"mem.gpu_bytes", nullptr,
     [](auto &p, auto) { return p.memBus->bytesMoved("gpu"); }},
    {"mem.cpu_bytes", nullptr,
     [](auto &p, auto) { return p.memBus->bytesMoved("cpu"); }},
    {"cpu.utilization", nullptr, nullptr,
     [](auto &p) {
         return p.kernel->cpus().utilization(0, p.sim->now());
     }},

    // The workqueue: the worker-count knob is bounded by the pool
    // built at construction.
    {"osk.workqueue_tasks", nullptr,
     [](auto &p, auto) { return p.wq->executedTasks(); }},
    {"osk.workqueue_max_workers", "/sys/genesys/workqueue/max_workers",
     [](auto &p, auto) { return p.wq->maxWorkers(); }, nullptr,
     [](auto &p, std::uint64_t v) {
         if (v > p.wq->workerCap())
             return false;
         p.wq->setMaxWorkers(static_cast<std::uint32_t>(v));
         return true;
     },
     1, UINT32_MAX},
    {nullptr, "/sys/genesys/workqueue/queue_bound",
     [](auto &p, auto) { return p.wq->queueBound(); }, nullptr,
     [](auto &p, std::uint64_t v) {
         p.wq->setQueueBound(static_cast<std::uint32_t>(v));
         return true;
     },
     1, UINT32_MAX},
    {"osk.workqueue_steals", "/sys/genesys/workqueue/steals",
     [](auto &p, auto) { return p.wq->steals(); }},
    {"osk.workqueue_spills", "/sys/genesys/workqueue/spills",
     [](auto &p, auto) { return p.wq->spills(); }},

    {"sim.events_executed", nullptr,
     [](auto &p, auto) { return p.sim->events().executedEvents(); }},
    {"sim.final_tick", nullptr,
     [](auto &p, auto) { return p.sim->now(); }},
};

} // namespace

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

    parts_ = std::make_unique<SystemParts>(SystemParts{
        sim_.get(), memBus_.get(), kernel_.get(), gpu_.get(), area_.get(),
        host_.get(), client_.get(), gsan_.get(), &kernel_->udp(),
        &kernel_->tcp(), &kernel_->epoll(), &kernel_->workqueue(),
        std::vector<std::uint64_t>(area_->shardCount(), 0)});
    SystemParts *parts = parts_.get();

    // Readiness wake fanout accounting: map each woken GPU waiter
    // (cookie = hardware wave slot) to its syscall-area shard. Host
    // waiters carry kEpollHostWaiter and are not shard-attributed.
    kernel_->epoll().setWakeObserver([parts](std::uint64_t cookie) {
        if (cookie == osk::kEpollHostWaiter)
            return;
        const std::uint32_t shard = parts->area->shardOfWave(
            static_cast<std::uint32_t>(cookie));
        if (shard < parts->epollShardWakes.size())
            ++parts->epollShardWakes[shard];
    });

    // Every row with a path becomes a file (one per shard for "%u").
    for (std::uint32_t i = 0; i < std::size(kRows); ++i) {
        const Row &row = kRows[i];
        if (row.path == nullptr)
            continue;
        const bool perShard = std::strstr(row.path, "%u") != nullptr;
        const std::uint32_t files = perShard ? area_->shardCount() : 1;
        for (std::uint32_t s = 0; s < files; ++s) {
            osk::SysfsWriter write;
            if (row.write) {
                write = [parts, i](std::uint64_t v) {
                    return kRows[i].write(*parts, v);
                };
            }
            osk::installSysfsFile(
                kernel_->vfs(),
                perShard ? logging::format(row.path, s) : row.path,
                [parts, i, s] { return kRows[i].read(*parts, s); },
                std::move(write), row.lo, row.hi);
        }
    }

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

System::System(System &&) = default;
System &System::operator=(System &&) = default;

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
    for (const Row &row : kRows) {
        if (row.report == nullptr)
            continue;
        const double v = row.ratio ? row.ratio(*parts_)
                                   : static_cast<double>(
                                         row.read(*parts_, 0));
        out += logging::format("%-40s %.6g\n", row.report, v);
    }
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
