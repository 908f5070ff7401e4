/**
 * @file
 * Ablation: cost and cleanliness of the gsan happens-before sanitizer.
 *
 * Part 1 runs every end-to-end workload as kPairs off/on pairs,
 * alternating which side runs first, and reports the median host
 * wall-clock overhead of the always-compiled instrumentation with its
 * quartiles: a single pair swings by tens of percent from scheduling
 * noise alone. Because gsan only observes (vector-clock joins on the
 * side, no simulated latency), the simulated end time must be
 * bit-identical across every run; that is asserted per workload.
 *
 * Part 2 sweeps the paper's invocation design space (granularity ×
 * ordering × blocking × wait mode, the fig 7/8 axes) with the
 * sanitizer enabled. Every clean run must produce zero reports: a
 * nonzero count here means either a real protocol bug or a sanitizer
 * false positive, and the binary exits nonzero so CI fails.
 */

#include <chrono>
#include <cstdio>
#include <string>

#include "bench/common.hh"
#include "support/stats.hh"
#include "workloads/fbdisplay.hh"
#include "workloads/grep.hh"
#include "workloads/memcached.hh"
#include "workloads/miniamr.hh"
#include "workloads/signal_search.hh"
#include "workloads/wordcount.hh"

using namespace genesys;
using namespace genesys::bench;

namespace
{

constexpr std::uint64_t kSeed = 42;
/// Off/on pairs per workload; odd, so the median is one pair's value.
constexpr int kPairs = 7;

struct Meas
{
    bool correct = false;
    Tick simElapsed = 0;
    double wallMs = 0.0;
    std::uint64_t reports = 0;
};

/** Run @p workload on a fresh system, timing the host wall clock. */
template <typename Fn>
Meas
measure(bool sanitize, Fn &&workload)
{
    core::System sys = freshSystem(kSeed);
    sys.gsan().setEnabled(sanitize);
    const auto t0 = std::chrono::steady_clock::now();
    Meas m = workload(sys);
    const auto t1 = std::chrono::steady_clock::now();
    m.wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    m.reports = sys.gsan().reportCount();
    if (m.reports > 0)
        std::printf("%s", sys.gsan().renderReports().c_str());
    return m;
}

Meas
grepWg(core::System &sys)
{
    workloads::GrepCorpusConfig cc;
    cc.numFiles = 64;
    cc.fileBytes = 8 * 1024;
    const auto corpus = workloads::buildGrepCorpus(sys, cc);
    const auto r = workloads::runGrep(sys, corpus,
                                      workloads::GrepMode::GpuWorkGroup);
    return {r.correct, sys.sim().now(), 0.0, 0};
}

Meas
wordcountGenesys(core::System &sys)
{
    workloads::WordcountCorpusConfig cc;
    cc.numFiles = 16;
    cc.fileBytes = 64 * 1024;
    const auto corpus = workloads::buildWordcountCorpus(sys, cc);
    const auto r = workloads::runWordcount(
        sys, corpus, workloads::WordcountMode::Genesys);
    return {r.correct, sys.sim().now(), 0.0, 0};
}

Meas
memcachedGpu(core::System &sys)
{
    workloads::MemcachedConfig cfg;
    cfg.elemsPerBucket = 64;
    cfg.numGets = 128;
    cfg.useGpu = true;
    const auto r = workloads::runMemcached(sys, cfg);
    return {r.correct, sys.sim().now(), 0.0, 0};
}

Meas
miniamrMadvise(core::System &sys)
{
    workloads::MiniAmrConfig cfg;
    cfg.datasetBytes = 48ull * 1024 * 1024;
    cfg.blockBytes = 4ull * 1024 * 1024;
    cfg.timesteps = 12;
    cfg.rssWatermarkBytes = 36ull * 1024 * 1024;
    const auto r = workloads::runMiniAmr(sys, cfg);
    return {r.completed && !r.gpuTimeout, sys.sim().now(), 0.0, 0};
}

Meas
signalSearch(core::System &sys)
{
    workloads::SignalSearchConfig cfg;
    cfg.numBlocks = 96;
    cfg.blockBytes = 16 * 1024;
    cfg.lookupQueriesPerBlock = 20'000;
    cfg.useSignals = true;
    const auto r = workloads::runSignalSearch(sys, cfg);
    return {r.correct, sys.sim().now(), 0.0, 0};
}

Meas
fbdisplay(core::System &sys)
{
    workloads::FbDisplayConfig cfg;
    cfg.width = 320;
    cfg.height = 240;
    const auto r = workloads::runFbDisplay(sys, cfg);
    return {r.ok && r.pixelErrors == 0, sys.sim().now(), 0.0, 0};
}

double
overheadPct(double off_ms, double on_ms)
{
    return off_ms > 0.0 ? (on_ms / off_ms - 1.0) * 100.0 : 0.0;
}

std::string
pct(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f", v);
    return buf;
}

/** "q1..q3" of a per-pair overhead distribution. */
std::string
quartiles(const stats::Distribution &d)
{
    return pct(d.percentile(25)) + ".." + pct(d.percentile(75));
}

core::Invocation
inv(core::Granularity g, core::Ordering o, core::Blocking b,
    core::WaitMode w)
{
    core::Invocation i;
    i.granularity = g;
    i.ordering = o;
    i.blocking = b;
    i.waitMode = w;
    return i;
}

/** One design-space point: a small syscall-heavy kernel, gsan on. */
std::uint64_t
matrixPointReports(core::Invocation varied)
{
    core::System sys = freshSystem(kSeed);
    sys.gsan().setEnabled(true);
    sys.kernel().vfs().createFile("/out");
    gpu::KernelLaunch k;
    k.workItems = 4 * 128;
    k.wgSize = 128;
    k.program = [&sys,
                 varied](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        const auto fixed =
            inv(core::Granularity::WorkGroup, core::Ordering::Strong,
                core::Blocking::Blocking, core::WaitMode::Polling);
        const auto fd = co_await sys.gpuSys().open(ctx, fixed, "/out",
                                                   osk::O_WRONLY);
        for (int round = 0; round < 4; ++round) {
            co_await sys.gpuSys().pwrite(ctx, varied,
                                         static_cast<int>(fd), "x", 1,
                                         ctx.workgroupId());
        }
        co_await sys.gpuSys().close(ctx, fixed,
                                    static_cast<int>(fd));
    };
    sys.launchGpuAndDrain(std::move(k));
    sys.run();
    if (sys.gsan().reportCount() > 0)
        std::printf("%s", sys.gsan().renderReports().c_str());
    return sys.gsan().reportCount();
}

std::uint64_t
workItemPointReports()
{
    core::System sys = freshSystem(kSeed);
    sys.gsan().setEnabled(true);
    sys.kernel().vfs().createFile("/out");
    gpu::KernelLaunch k;
    k.workItems = 2 * 64;
    k.wgSize = 64;
    k.program = [&sys](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        const auto fixed =
            inv(core::Granularity::WorkGroup, core::Ordering::Strong,
                core::Blocking::Blocking, core::WaitMode::Polling);
        const auto fd = co_await sys.gpuSys().open(ctx, fixed, "/out",
                                                   osk::O_WRONLY);
        co_await sys.gpuSys().invokeWorkItems(
            ctx,
            inv(core::Granularity::WorkItem, core::Ordering::Strong,
                core::Blocking::Blocking, core::WaitMode::Polling),
            osk::sysno::pwrite64,
            [&](std::uint32_t lane) {
                return std::optional<osk::SyscallArgs>(osk::makeArgs(
                    static_cast<int>(fd), "x", 1, lane));
            });
        co_await sys.gpuSys().close(ctx, fixed,
                                    static_cast<int>(fd));
    };
    sys.launchGpuAndDrain(std::move(k));
    sys.run();
    if (sys.gsan().reportCount() > 0)
        std::printf("%s", sys.gsan().renderReports().c_str());
    return sys.gsan().reportCount();
}

std::uint64_t
kernelPointReports()
{
    core::System sys = freshSystem(kSeed);
    sys.gsan().setEnabled(true);
    gpu::KernelLaunch k;
    k.workItems = 4 * 128;
    k.wgSize = 128;
    k.program = [&sys](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        osk::RUsage ru{};
        co_await sys.gpuSys().getrusage(
            ctx,
            inv(core::Granularity::Kernel, core::Ordering::Relaxed,
                core::Blocking::Blocking, core::WaitMode::Polling),
            &ru);
    };
    sys.launchGpuAndDrain(std::move(k));
    sys.run();
    if (sys.gsan().reportCount() > 0)
        std::printf("%s", sys.gsan().renderReports().c_str());
    return sys.gsan().reportCount();
}

} // namespace

int
main()
{
    banner("abl_gsan",
           "Happens-before sanitizer: wall-clock overhead on the "
           "end-to-end workloads, and zero-report sweeps of the "
           "invocation design space");

    bool ok = true;

    TextTable t1(std::to_string(kPairs) +
                 " off/on pairs per workload, gsan off vs on (seeded, "
                 "simulated time must be identical; wall columns are "
                 "medians)");
    t1.setHeader({"workload", "correct", "reports", "sim_identical",
                  "wall_off_ms", "wall_on_ms", "overhead_%",
                  "overhead_q1..q3_%"});
    double totalOff[kPairs] = {}, totalOn[kPairs] = {};
    const struct
    {
        const char *name;
        Meas (*fn)(core::System &);
    } kWorkloads[] = {
        {"grep/wg", grepWg},
        {"wordcount/genesys", wordcountGenesys},
        {"memcached/gpu", memcachedGpu},
        {"miniamr/madvise", miniamrMadvise},
        {"signal_search", signalSearch},
        {"fbdisplay", fbdisplay},
    };
    for (const auto &w : kWorkloads) {
        bool correct = true, same_sim = true;
        std::uint64_t reports = 0;
        Tick sim = 0;
        stats::Distribution offMs, onMs, overhead;
        for (int k = 0; k < kPairs; ++k) {
            Meas off, on;
            if (k % 2 == 0) {
                off = measure(false, w.fn);
                on = measure(true, w.fn);
            } else {
                on = measure(true, w.fn);
                off = measure(false, w.fn);
            }
            if (k == 0)
                sim = off.simElapsed;
            same_sim = same_sim && off.simElapsed == sim &&
                       on.simElapsed == sim;
            correct = correct && off.correct && on.correct;
            reports += on.reports;
            offMs.sample(off.wallMs);
            onMs.sample(on.wallMs);
            overhead.sample(overheadPct(off.wallMs, on.wallMs));
            totalOff[k] += off.wallMs;
            totalOn[k] += on.wallMs;
        }
        const bool row_ok = correct && reports == 0 && same_sim;
        ok = ok && row_ok;
        t1.addRow({w.name, row_ok ? "yes" : "NO", std::to_string(reports),
                   same_sim ? "yes" : "NO",
                   std::to_string(offMs.percentile(50)),
                   std::to_string(onMs.percentile(50)),
                   pct(overhead.percentile(50)), quartiles(overhead)});
    }
    std::printf("%s\n", t1.render().c_str());
    stats::Distribution aggregate;
    for (int k = 0; k < kPairs; ++k)
        aggregate.sample(overheadPct(totalOff[k], totalOn[k]));
    std::printf("aggregate wall-clock overhead: median %s%% over %d "
                "pairs, quartiles %s%% (target: median < 10%%)\n\n",
                pct(aggregate.percentile(50)).c_str(), kPairs,
                quartiles(aggregate).c_str());
    if (aggregate.percentile(50) >= 10.0)
        ok = false;

    TextTable t2("invocation design space with gsan on "
                 "(fig 7/8 axes; every point must be report-free)");
    t2.setHeader({"point", "reports"});
    for (const core::Ordering o :
         {core::Ordering::Strong, core::Ordering::Relaxed}) {
        for (const core::Blocking b :
             {core::Blocking::Blocking, core::Blocking::NonBlocking}) {
            for (const core::WaitMode w :
                 {core::WaitMode::Polling, core::WaitMode::HaltResume}) {
                const std::uint64_t n = matrixPointReports(
                    inv(core::Granularity::WorkGroup, o, b, w));
                ok = ok && n == 0;
                std::string name = std::string("wg/") +
                                   core::orderingName(o) + "/" +
                                   core::blockingName(b) + "/" +
                                   core::waitModeName(w);
                t2.addRow({name, std::to_string(n)});
            }
        }
    }
    const std::uint64_t wi = workItemPointReports();
    ok = ok && wi == 0;
    t2.addRow({"workitem/strong/blocking/polling",
               std::to_string(wi)});
    const std::uint64_t kg = kernelPointReports();
    ok = ok && kg == 0;
    t2.addRow({"kernel/relaxed/blocking/polling", std::to_string(kg)});
    std::printf("%s\n", t2.render().c_str());

    std::printf("abl_gsan: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
