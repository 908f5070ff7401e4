/**
 * @file
 * perfbench workloads (see README.md for why each one exists).
 *
 * Every repetition reads the layers from outside: counters through the
 * public accessors after the run, wall time around the calls the
 * benchmark makes. Per-request spans are stamped around the benchmark's
 * own calls into GpuSyscalls and the gmc RunFn, never inside src/.
 */

#include "workloads.hh"

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <string>

#include "core/backend/polling_backend.hh"
#include "core/gmc.hh"
#include "core/system.hh"
#include "osk/file.hh"
#include "sim/explore.hh"
#include "support/random.hh"
#include "support/trace.hh"
#include "workloads/gkv.hh"
#include "workloads/wordcount.hh"

namespace perfbench
{

namespace
{

using namespace genesys;

/// Input streams derived from the seed get their own constant so they
/// never replay the System's own stream.
Random
inputRng(std::uint64_t seed, std::uint64_t stream)
{
    return Random(seed * 0x9E3779B97F4A7C15ull ^ stream);
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

std::unique_ptr<core::System>
buildSystem(const core::SystemConfig &sc, RepResult &r, Recorder &rec)
{
    Phase phase(rec, "system construction", 0);
    const auto t0 = Clock::now();
    auto sys = std::make_unique<core::System>(sc);
    r.systemBuildUs = secondsSince(t0) * 1e6;
    phase.finish(0);
    return sys;
}

/** Every simulated counter of every layer, over [from, to]. */
void
readLayers(core::System &sys, Tick from, Tick to, RepResult &r)
{
    auto &l = r.layer;
    auto &k = sys.kernel();
    auto &host = sys.host();
    auto &area = sys.syscallArea();
    auto &client = sys.gpuSys();
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };

    l["sim.events"] = d(sys.sim().events().executedEvents());

    const double hits = d(sys.gpu().l2().hits());
    const double misses = d(sys.gpu().l2().misses());
    l["gpu.wavefronts"] = d(sys.gpu().launchedWavefronts());
    l["gpu.l2_hits"] = hits;
    l["gpu.l2_misses"] = misses;
    l["gpu.l2_hit_ratio"] = ratio(hits, hits + misses);

    const double requests = d(client.issuedRequests());
    l["core.requests"] = requests;
    l["core.retries"] = d(client.syscallRetries());
    l["core.short_transfers"] = d(client.shortTransfers());
    l["core.ring_batches"] = d(area.ringBatchesTotal());
    l["core.ring_entries"] = d(area.ringEntriesTotal());
    l["core.ring_occupancy"] = area.ringBatchOccupancy();
    const double suppressed = d(host.ringDoorbellsSuppressed());
    const double interrupts = d(host.interrupts());
    l["core.doorbells_suppressed"] = suppressed;
    // Every ring doorbell counts as an interrupt; the suppressed ones
    // found a consumer already draining the shard.
    l["core.doorbell_suppression_ratio"] = ratio(suppressed, interrupts);
    l["core.ring_cq_posted"] = d(host.ringCqPosted());

    l["host.interrupts"] = interrupts;
    l["host.batches"] = d(host.batches());
    l["host.batch_size_mean"] =
        host.batchSizes().empty() ? 0.0 : host.batchSizes().mean();
    l["host.syscalls"] = d(host.processedSyscalls());
    l["host.interrupts_per_request"] = ratio(interrupts, requests);

    l["osk.workqueue_tasks"] = d(k.workqueue().executedTasks());
    l["osk.workqueue_steals"] = d(k.workqueue().steals());
    l["osk.workqueue_spills"] = d(k.workqueue().spills());
    l["osk.cpu_util"] = to > from ? k.cpus().utilization(from, to) : 0.0;
    const double ssd_bytes = d(k.ssd().bytesRead());
    l["osk.ssd_bytes"] = ssd_bytes;
    l["osk.ssd_requests"] = d(k.ssd().requests());
    l["osk.ssd_delayed_requests"] = d(k.ssd().delayedRequests());
    l["osk.ssd_mbps"] =
        to > from ? ssd_bytes / ticks::toSec(to - from) / 1e6 : 0.0;
    const auto &tcp = k.tcp().counters();
    l["osk.tcp_segs_sent"] = d(tcp.segsSent);
    l["osk.tcp_retransmits"] = d(tcp.retransmits);
    l["osk.tcp_backpressure_stalls"] = d(tcp.backpressureStalls);
    l["osk.tcp_copied_bytes"] = d(tcp.copiedBytes);
    l["osk.tcp_zerocopy_bytes"] = d(tcp.zerocopyBytes);
    l["osk.epoll_waits"] = d(k.epoll().waits());
    l["osk.epoll_wakeups"] = d(k.epoll().wakeups());

    l["mem.gpu_bytes"] = d(sys.memBus().bytesMoved("gpu"));
    l["mem.cpu_bytes"] = d(sys.memBus().bytesMoved("cpu"));
}

/**
 * Fold every sim_* metric and every simulated counter into the digest.
 * Call before any host-clock figure is added to r.layer.
 */
void
sealDigest(RepResult &r)
{
    for (const auto &[name, v] : r.sim) {
        r.digest.add(name);
        r.digest.add(v);
    }
    for (const auto &[name, v] : r.layer) {
        r.digest.add(name);
        r.digest.add(v);
    }
}

void
setLatency(RepResult &r, const std::vector<double> &us)
{
    r.sim["sim_p50_us"] = percentile(us, 50.0);
    r.sim["sim_p99_us"] = percentile(us, 99.0);
    r.latencySamples = us.size();
}

double
cpuMs(core::System &sys, Tick from, Tick to)
{
    return sys.kernel().cpus().utilization(from, to) *
           sys.kernel().cpus().cores() * ticks::toMs(to - from);
}

// ---------------------------------------------------------------------
// wordcount-ssd: Fig 13b/14 GENESYS mode over SSD-backed files.

RepResult
runWordcountSsd(const RunConfig &cfg, Recorder &rec)
{
    RepResult r;
    const auto setup_t0 = Clock::now();
    core::SystemConfig sc;
    sc.seed = cfg.seed;
    auto sys = buildSystem(sc, r, rec);
    sys->gsan().setEnabled(cfg.gsan);

    // File sizes are part of the input: the SSD model times bytes, not
    // content, so the seed also trims each run's file length by 64 B to
    // 1 KiB. Every file then ends in a short read, whatever the seed.
    workloads::WordcountCorpusConfig wc;
    wc.numFiles = cfg.small ? 8 : 64;
    wc.fileBytes = static_cast<std::uint32_t>(
        (cfg.small ? 32 : 256) * 1024 -
        64 * (1 + inputRng(cfg.seed, 1).below(16)));
    Phase input(rec, "input build", sys->sim().now());
    const workloads::WordcountCorpus corpus =
        workloads::buildWordcountCorpus(*sys, wc);
    r.inputBuildS = input.finish(sys->sim().now());
    r.setupS = secondsSince(setup_t0);

    // Per-file latency: each file is one work-group, and the gpu trace
    // category stamps every work-group's retirement.
    std::vector<Tick> retired;
    trace::setSink([&retired](Tick when, const std::string &,
                              const std::string &msg) {
        if (msg.rfind("work-group ", 0) == 0 &&
            msg.find("retired") != std::string::npos)
            retired.push_back(when);
    });
    trace::enable("gpu");
    const Tick start = sys->sim().now();
    Phase run(rec, "launch + System::run", start);
    const workloads::WordcountResult res = workloads::runWordcount(
        *sys, corpus, workloads::WordcountMode::Genesys);
    const Tick end = start + res.elapsed;
    r.hostS = run.finish(end);
    trace::reset();
    trace::setSink(nullptr);

    Phase verify(rec, "verification", end);
    for (std::size_t w = 0; w < corpus.words.size(); ++w) {
        const bool ok = w < res.counts.size() &&
                        res.counts[w] == corpus.expected[w];
        r.check(ok, "wordcount total differs from the reference count");
        r.digest.add(corpus.words[w]);
        r.digest.add(ok ? res.counts[w] : ~std::uint64_t{0});
    }
    r.check(retired.size() == corpus.files.size(),
            "not every file's work-group retired");
    r.gsanReports = sys->gsan().reportCount();
    r.check(r.gsanReports == 0, "gsan reported a violation");
    r.verifyS = verify.finish(end);

    // runWordcount's elapsed runs on to its 2 ms sampling window, so
    // the span the metrics use ends at the last work-group retirement.
    const Tick last =
        retired.empty() ? end
                        : *std::max_element(retired.begin(), retired.end());
    std::vector<double> lat_us;
    for (const Tick t : retired)
        lat_us.push_back(ticks::toUs(t - start));
    r.sim["sim_mbps"] = static_cast<double>(corpus.totalBytes) /
                        ticks::toSec(last - start) / 1e6;
    r.sim["sim_kops"] = static_cast<double>(
                            sys->host().processedSyscalls()) /
                        ticks::toMs(last - start);
    setLatency(r, lat_us);
    r.sim["sim_cpu_ms"] = cpuMs(*sys, start, last);
    r.digest.add(res.elapsed);
    readLayers(*sys, start, last, r);
    sealDigest(r);
    return r;
}

// ---------------------------------------------------------------------
// gkv-ring: TCP + edge-triggered epoll KV server over SQ/CQ rings.

RepResult
runGkvRing(const RunConfig &cfg, Recorder &rec)
{
    RepResult r;
    const auto setup_t0 = Clock::now();
    core::SystemConfig sc;
    sc.seed = cfg.seed; // runGkv draws its request scripts from it
    sc.genesys.areaShards = 8;
    sc.genesys.useRings = true;
    sc.kernel.workqueueWorkers = 4;
    auto sys = buildSystem(sc, r, rec);
    sys->gsan().setEnabled(cfg.gsan);

    workloads::GkvConfig gc;
    gc.useGpu = true;
    gc.serverGroups = 8;
    gc.numConnections = cfg.small ? 4 : 16;
    gc.requestsPerConn = cfg.small ? 64 : 4096;
    gc.pipelineDepth = 4;
    gc.setFraction = 0.25;
    // The GET/SET mix and keys do not change the timing (every frame
    // has the same size), so the seed also draws the clients' think
    // time around the 1 us default.
    gc.thinkNs = 750 + inputRng(cfg.seed, 4).below(501);
    r.setupS = secondsSince(setup_t0);

    Phase run(rec, "launch + System::run", sys->sim().now());
    const workloads::GkvResult res = workloads::runGkv(*sys, gc);
    const Tick end = sys->sim().now();
    const Tick start = end - res.elapsed;
    r.hostS = run.finish(end);

    Phase verify(rec, "verification", end);
    const std::uint64_t total =
        std::uint64_t(gc.numConnections) * gc.requestsPerConn;
    const std::uint64_t served = res.gets + res.sets;
    // runGkv verifies every reply against the store version it read;
    // an incorrect run fails at least the requests it did not serve.
    r.attempted += total;
    if (!res.correct) {
        r.failed += std::max<std::uint64_t>(
            total - std::min(served, total), 1);
        r.problem = "gkv replies failed verification";
    }
    r.gsanReports = sys->gsan().reportCount();
    r.check(r.gsanReports == 0, "gsan reported a violation");
    r.digest.add(res.gets);
    r.digest.add(res.sets);
    r.digest.add(res.accepted);
    r.digest.add(res.p95LatencyUs);
    r.verifyS = verify.finish(end);

    const double frame = workloads::kGkvHeaderBytes + gc.valueBytes;
    r.sim["sim_mbps"] = 2.0 * frame * static_cast<double>(served) /
                        ticks::toSec(res.elapsed) / 1e6;
    r.sim["sim_kops"] = res.throughputKops;
    r.sim["sim_p50_us"] = res.p50LatencyUs;
    r.sim["sim_p99_us"] = res.p99LatencyUs;
    r.latencySamples = served;
    r.sim["sim_cpu_ms"] = cpuMs(*sys, start, end);
    readLayers(*sys, start, end, r);
    sealDigest(r);
    return r;
}

// ---------------------------------------------------------------------
// pread-daemon: open-loop low-load preads served by the prior-work
// polling daemon with 5 us scans.

constexpr std::uint64_t kPreadBytes = 4096;
constexpr Tick kPreadGap = ticks::us(5);
constexpr std::uint64_t kPreadFileBytes = 1 << 20;
constexpr const char *kPreadPath = "/tmp/perfbench-pread.dat";

struct PreadState
{
    int fd = -1;
    std::uint32_t waves = 0;
    std::vector<Tick> due, issue, done;
    std::vector<std::int64_t> offset, ret;
    std::vector<std::uint8_t> bufs;
    std::vector<double> hostIssue, hostDone;
    std::uint64_t completed = 0;
};

sim::Task<>
preadWave(core::System &sys, PreadState &st, Recorder &rec,
          gpu::WavefrontCtx &ctx)
{
    core::Invocation wg;
    wg.ordering = core::Ordering::Relaxed;
    const auto spin_cycles =
        static_cast<std::uint64_t>(ctx.device().config().clockHz / 1e6);
    for (std::size_t k = ctx.workgroupId(); k < st.due.size();
         k += st.waves) {
        // A wave cannot sleep to the nanosecond: it spins in ~1 us
        // steps until the request is due, so issue trails due by up to
        // one step.
        while (ctx.sim().now() < st.due[k])
            co_await ctx.compute(spin_cycles);
        st.issue[k] = ctx.sim().now();
        if (rec.enabled())
            st.hostIssue[k] = rec.hostUs();
        st.ret[k] = co_await sys.gpuSys().pread(
            ctx, wg, st.fd,
            ctx.isGroupLeader() ? &st.bufs[k * kPreadBytes] : nullptr,
            kPreadBytes, st.offset[k]);
        st.done[k] = ctx.sim().now();
        if (rec.enabled())
            st.hostDone[k] = rec.hostUs();
        ++st.completed;
    }
}

RepResult
runPreadDaemon(const RunConfig &cfg, Recorder &rec)
{
    RepResult r;
    const auto setup_t0 = Clock::now();
    core::SystemConfig sc;
    sc.seed = cfg.seed;
    auto sys = buildSystem(sc, r, rec);
    sys->gsan().setEnabled(cfg.gsan);

    // Open loop: one request falls due in every 5 us window, at a
    // seeded point inside it, whatever the server does; the seed also
    // draws the file offsets.
    Phase input(rec, "input build", 0);
    Random rng = inputRng(cfg.seed, 2);
    std::vector<std::uint8_t> content(kPreadFileBytes);
    for (auto &b : content)
        b = static_cast<std::uint8_t>(rng.next());
    const std::size_t n = cfg.small ? 128 : 2048;
    PreadState st;
    st.waves = cfg.small ? 4 : 8;
    st.due.resize(n);
    st.issue.assign(n, 0);
    st.done.assign(n, 0);
    st.ret.assign(n, 0);
    st.offset.resize(n);
    st.bufs.assign(n * kPreadBytes, 0);
    st.hostIssue.assign(n, 0.0);
    st.hostDone.assign(n, 0.0);
    for (std::size_t k = 0; k < n; ++k) {
        st.due[k] = k * kPreadGap + rng.below(kPreadGap);
        st.offset[k] = static_cast<std::int64_t>(
            rng.below(kPreadFileBytes / kPreadBytes) * kPreadBytes);
    }
    sys->kernel().vfs().createFile(kPreadPath)->setData(content);
    std::int64_t fd = -1;
    sys->sim().spawn([](core::System &s, std::int64_t &out)
                         -> sim::Task<> {
        out = co_await s.kernel().doSyscall(
            s.process(), osk::sysno::open,
            osk::makeArgs(kPreadPath, osk::O_RDONLY));
    }(*sys, fd));
    sys->run();
    st.fd = static_cast<int>(fd);
    r.inputBuildS = input.finish(sys->sim().now());
    r.setupS = secondsSince(setup_t0);

    const Tick start = sys->sim().now();
    Phase run(rec, "launch + System::run", start);
    sys->host().startPollingDaemon(ticks::us(5));
    auto *daemon = dynamic_cast<core::PollingDaemonBackend *>(
        &sys->host().activeBackend());
    // Requests fall due after the kernel is resident on the CUs.
    const Tick base = start + sc.gpu.kernelLaunchLatency + ticks::us(5);
    for (Tick &t : st.due)
        t += base;
    gpu::KernelLaunch launch;
    launch.workItems = std::uint64_t(st.waves) * 64;
    launch.wgSize = 64;
    launch.program = [&sys, &st, &rec](gpu::WavefrontCtx &ctx)
        -> sim::Task<> { return preadWave(*sys, st, rec, ctx); };
    sys->launchGpu(std::move(launch));
    // A stalled daemon must not hang the benchmark: give the stream ten
    // times its nominal span before giving up.
    const Tick horizon = st.due.back() + 10 * (st.due.back() - base) +
                         ticks::ms(1);
    while (st.completed < n && sys->sim().now() < horizon) {
        const Tick from = sys->sim().now();
        Phase slice(rec, "System::run slice", from);
        sys->run(from + ticks::us(500));
        slice.finish(sys->sim().now());
    }
    sys->host().stopDaemon();
    sys->run(); // the daemon's last sweep, then quiescence
    const std::uint64_t sweeps = daemon != nullptr ? daemon->sweeps() : 0;
    const Tick end = *std::max_element(st.done.begin(), st.done.end());
    r.hostS = run.finish(sys->sim().now());

    Phase verify(rec, "verification", end);
    std::vector<double> lat_us, late_us;
    for (std::size_t k = 0; k < n; ++k) {
        const bool ok =
            st.ret[k] == static_cast<std::int64_t>(kPreadBytes) &&
            std::memcmp(&st.bufs[k * kPreadBytes],
                        &content[static_cast<std::size_t>(st.offset[k])],
                        kPreadBytes) == 0;
        r.check(ok, "pread returned other than the file's 4096 bytes");
        r.digest.add(static_cast<std::uint64_t>(st.ret[k]));
        r.digest.add(st.done[k]);
        lat_us.push_back(ticks::toUs(st.done[k] - st.due[k]));
        late_us.push_back(ticks::toUs(st.issue[k] - st.due[k]));
        rec.span("due -> issue", "request", k % st.waves + 1,
                 st.hostIssue[k], st.hostIssue[k], st.due[k], st.issue[k],
                 k);
        rec.span("pread", "request", k % st.waves + 1, st.hostIssue[k],
                 st.hostDone[k], st.issue[k], st.done[k], k);
    }
    r.gsanReports = sys->gsan().reportCount();
    r.check(r.gsanReports == 0, "gsan reported a violation");
    r.verifyS = verify.finish(end);

    const Tick first_due = st.due.front();
    const double span_ms = ticks::toMs(end - first_due);
    r.sim["sim_mbps"] =
        static_cast<double>(n * kPreadBytes) / span_ms / 1e3;
    r.sim["sim_kops"] = static_cast<double>(n) / span_ms;
    setLatency(r, lat_us);
    r.sim["sim_cpu_ms"] = cpuMs(*sys, first_due, end);
    readLayers(*sys, first_due, end, r);
    const double visits = static_cast<double>(sweeps) *
                          sys->syscallArea().shardSlotCount();
    r.layer["host.daemon_sweeps"] = static_cast<double>(sweeps);
    r.layer["host.slot_visits"] = visits;
    r.layer["host.useful_visit_ratio"] =
        ratio(static_cast<double>(sys->host().processedSyscalls()), visits);
    r.layer["bench.generator_late_p99_us"] = percentile(late_us, 99.0);
    r.layer["bench.generator_late_mean_us"] =
        std::accumulate(late_us.begin(), late_us.end(), 0.0) /
        static_cast<double>(n);
    sealDigest(r);
    return r;
}

// ---------------------------------------------------------------------
// gmc-wi: exhaustive schedule exploration of the work-item config.

constexpr const char *kGmcConfig = "wi-strong-block-poll-1x1g1";

/**
 * The checked design point at full timing: work-item granularity,
 * strong ordering, blocking, polling wait. Every lane pwrites a
 * seeded-length record to a disjoint offset, round after round; each
 * lane's latency runs from its round's start to the sweep that sees
 * its result. The explored scenario runs on
 * collapsed latencies, so this is where gmc-wi's simulated figures
 * come from.
 */
struct TwinState
{
    std::uint32_t rounds = 0;
    std::uint32_t lanes = 0;
    std::vector<std::uint32_t> len;   ///< per (round, item)
    std::vector<std::uint8_t> payload; ///< kTwinStride bytes per record
    std::vector<std::int64_t> ret;
    std::vector<double> latUs;
    std::uint64_t bytes = 0;
};

constexpr std::uint32_t kTwinStride = 1024;
constexpr const char *kTwinPath = "/tmp/perfbench-gmc-wi.dat";

sim::Task<>
twinWave(core::System &sys, TwinState &st, gpu::WavefrontCtx &ctx)
{
    core::Invocation setup; // work-group, strong, blocking, polling
    core::Invocation wi;
    wi.granularity = core::Granularity::WorkItem;
    const std::int64_t fd =
        co_await sys.gpuSys().open(ctx, setup, kTwinPath, osk::O_WRONLY);
    const std::uint64_t items = std::uint64_t(st.lanes);
    for (std::uint32_t round = 0; round < st.rounds; ++round) {
        // Named locals, not temporaries: see the GCC 12 note in
        // src/core/gmc.cc on owning lambdas inside co_await.
        std::function<std::optional<osk::SyscallArgs>(std::uint32_t)>
            laneArgs = [&](std::uint32_t lane) {
                const std::uint64_t rec =
                    round * items + ctx.firstWorkItem() + lane;
                if (st.len[rec] == 0)
                    return std::optional<osk::SyscallArgs>();
                return std::optional<osk::SyscallArgs>(osk::makeArgs(
                    fd, &st.payload[rec * kTwinStride], st.len[rec],
                    static_cast<std::int64_t>(rec * kTwinStride)));
            };
        const Tick t0 = ctx.sim().now();
        std::function<void(std::uint32_t, std::int64_t)> onResult =
            [&](std::uint32_t lane, std::int64_t ret) {
                st.ret[round * items + ctx.firstWorkItem() + lane] = ret;
                st.latUs.push_back(ticks::toUs(ctx.sim().now() - t0));
            };
        co_await sys.gpuSys().invokeWorkItems(
            ctx, wi, osk::sysno::pwrite64, std::move(laneArgs),
            std::move(onResult));
    }
    co_await sys.gpuSys().close(ctx, setup, static_cast<int>(fd));
}

void
runTwin(const RunConfig &cfg, RepResult &r, Recorder &rec)
{
    core::SystemConfig sc;
    sc.seed = cfg.seed;
    core::System sys(sc);
    sys.gsan().setEnabled(cfg.gsan);
    const std::uint32_t groups = cfg.small ? 2 : 16;
    TwinState st;
    st.rounds = cfg.small ? 2 : 8;
    st.lanes = groups * sc.gpu.wavefrontSize;
    const std::size_t records = std::size_t(st.rounds) * st.lanes;
    Random rng = inputRng(cfg.seed, 3);
    st.len.resize(records);
    st.payload.resize(records * kTwinStride);
    st.ret.assign(records, 0);
    // One lane in eight has nothing to write in a round (len 0): the
    // seed decides which, so rounds differ in how many slots they fill.
    for (auto &l : st.len) {
        l = rng.below(8) == 0 ? 0
                              : static_cast<std::uint32_t>(
                                    64 + rng.below(kTwinStride - 63));
    }
    for (auto &b : st.payload)
        b = static_cast<std::uint8_t>(rng.next());
    osk::RegularFile *file = sys.kernel().vfs().createFile(kTwinPath);
    // Full size up front: grown write by write, the file's buffer would
    // reallocate at sizes set by the seeded record lengths, and peak RSS
    // would follow the seed by several MB.
    file->truncate(records * kTwinStride);

    const Tick start = sys.sim().now();
    Phase run(rec, "full-timing twin", start);
    gpu::KernelLaunch launch;
    launch.workItems = st.lanes;
    launch.wgSize = sc.gpu.wavefrontSize;
    launch.program = [&sys, &st](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        return twinWave(sys, st, ctx);
    };
    sys.launchGpuAndDrain(std::move(launch));
    const Tick end = sys.run();
    r.hostS += run.finish(end);

    const std::vector<std::uint8_t> &data = file->data();
    for (std::size_t i = 0; i < records; ++i) {
        if (st.len[i] == 0)
            continue;
        const std::size_t off = i * kTwinStride;
        const bool ok = st.ret[i] == static_cast<std::int64_t>(st.len[i]) &&
                        data.size() >= off + st.len[i] &&
                        std::memcmp(&data[off], &st.payload[off],
                                    st.len[i]) == 0;
        r.check(ok, "twin pwrite record differs from its payload");
        r.digest.add(static_cast<std::uint64_t>(st.ret[i]));
        st.bytes += st.len[i];
    }
    r.gsanReports += sys.gsan().reportCount();
    r.check(sys.gsan().reportCount() == 0, "gsan reported a violation");

    const double span_ms = ticks::toMs(end - start);
    r.sim["sim_mbps"] = static_cast<double>(st.bytes) / span_ms / 1e3;
    r.sim["sim_kops"] = static_cast<double>(st.latUs.size()) / span_ms;
    setLatency(r, st.latUs);
    r.sim["sim_cpu_ms"] = cpuMs(sys, start, end);
    readLayers(sys, start, end, r);
}

RepResult
runGmcWi(const RunConfig &cfg, Recorder &rec)
{
    RepResult r;
    const std::vector<core::gmc::McConfig> matrix =
        core::gmc::smallMatrix();
    const core::gmc::McConfig *mc =
        core::gmc::configByName(matrix, kGmcConfig);
    if (mc == nullptr) {
        r.check(false, "gmc config wi-strong-block-poll-1x1g1 is gone");
        return r;
    }

    // Per-schedule set-up is one collapsed System per schedule; time
    // the constructor itself, next to the default config's.
    const auto setup_t0 = Clock::now();
    std::vector<double> collapsed_us, default_us;
    for (int i = 0; i < 8; ++i) {
        auto t0 = Clock::now();
        { core::System s(core::gmc::collapsedConfig(*mc)); }
        collapsed_us.push_back(secondsSince(t0) * 1e6);
        t0 = Clock::now();
        { core::System s; }
        default_us.push_back(secondsSince(t0) * 1e6);
    }
    r.systemBuildUs = median(collapsed_us);
    r.setupS = secondsSince(setup_t0);

    // The scenario enables gsan itself on every schedule, in timed and
    // untimed runs alike.
    const sim::gmc::RunFn scenario = core::gmc::scenario(*mc);
    std::uint64_t schedule = 0;
    const sim::gmc::RunFn traced =
        [&](sim::gmc::ScheduleDriver &driver) -> sim::gmc::RunOutcome {
        const double h0 = rec.enabled() ? rec.hostUs() : 0.0;
        sim::gmc::RunOutcome out = scenario(driver);
        rec.span("schedule", "gmc", 1, h0,
                 rec.enabled() ? rec.hostUs() : 0.0, 0, out.endTick,
                 schedule);
        ++schedule;
        return out;
    };
    sim::gmc::ExploreOptions opts;
    if (cfg.small)
        opts.maxSchedules = 200;
    Phase run(rec, "explore", 0);
    const auto t0 = Clock::now();
    const sim::gmc::ExploreResult res = sim::gmc::explore(traced, opts);
    const double explore_s = secondsSince(t0);
    r.hostS = run.finish(0);

    r.attempted += res.stats.schedulesRun;
    r.failed += res.violations.size();
    if (!res.violations.empty())
        r.problem = "gmc " + res.violations.front().outcome.kind + ": " +
                    sim::gmc::renderSchedule(
                        res.violations.front().schedule);
    r.check(cfg.small || res.stats.exhaustive,
            "gmc exploration was not exhaustive");
    r.digest.add(res.reference.digest);
    r.digest.add(res.reference.endTick);

    runTwin(cfg, r, rec);

    r.layer["explore.schedules"] =
        static_cast<double>(res.stats.schedulesRun);
    r.layer["explore.choice_points"] =
        static_cast<double>(res.stats.choicePoints);
    r.layer["explore.events"] =
        static_cast<double>(res.stats.eventsExecuted);
    sealDigest(r);
    r.layer["explore.host_us_per_schedule"] =
        explore_s * 1e6 / static_cast<double>(res.stats.schedulesRun);
    r.layer["setup.default_system_build_us"] = median(default_us);
    return r;
}

} // namespace

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"wordcount-ssd", runWordcountSsd},
        {"gkv-ring", runGkvRing},
        {"pread-daemon", runPreadDaemon},
        {"gmc-wi", runGmcWi},
    };
    return all;
}

} // namespace perfbench
