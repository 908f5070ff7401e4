/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--size full|small] [--trace-dir <dir>]
 *
 * Repeats the workload, each time from a cold core::System, until
 * --seconds of wall time have passed (at least three repetitions), then
 * runs one untimed correctness pass with gsan enabled. A fixed
 * reference loop is timed before and after every repetition; host_s
 * and setup_s are medians over the repetitions of their time divided
 * by the reference loop's, scaled by kReferenceS. Simulated metrics and
 * the sim digest must be identical across all of them, or the run
 * reports nondeterminism. With --trace 1 every untimed repetition is followed
 * by a traced one; the traced run reports the per-layer metrics and the
 * tracing overhead, and writes the first traced repetition's spans as
 * Chrome trace-event JSON under --trace-dir.
 *
 * The last line of stdout is one JSON object:
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
 */

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

struct Metric
{
    const char *name;
    const char *unit;
    const char *clock;
};

/** BENCHMARK.json's end_to_end list, in order. */
const Metric kEndToEnd[] = {
    {"host_s", "s", "host"},
    {"setup_s", "s", "host"},
    {"peak_rss_mb", "MB", "host"},
    {"sim_mbps", "MB/s", "simulated"},
    {"sim_kops", "kops/s", "simulated"},
    {"sim_p50_us", "us", "simulated"},
    {"sim_p99_us", "us", "simulated"},
    {"sim_cpu_ms", "ms", "simulated"},
};

/** BENCHMARK.json's per_layer list, in order. */
const Metric kPerLayer[] = {
    {"sim.events", "count", "simulated"},
    {"sim.host_ns_per_event", "ns", "host"},
    {"sim.latency_samples", "count", "simulated"},
    {"explore.schedules", "count", "simulated"},
    {"explore.choice_points", "count", "simulated"},
    {"explore.events", "count", "simulated"},
    {"explore.host_us_per_schedule", "us", "host"},
    {"setup.system_build_us", "us", "host"},
    {"setup.default_system_build_us", "us", "host"},
    {"gpu.wavefronts", "count", "simulated"},
    {"gpu.l2_hits", "count", "simulated"},
    {"gpu.l2_misses", "count", "simulated"},
    {"gpu.l2_hit_ratio", "ratio", "simulated"},
    {"core.requests", "count", "simulated"},
    {"core.retries", "count", "simulated"},
    {"core.short_transfers", "count", "simulated"},
    {"core.ring_batches", "count", "simulated"},
    {"core.ring_entries", "count", "simulated"},
    {"core.ring_occupancy", "entries", "simulated"},
    {"core.doorbells_suppressed", "count", "simulated"},
    {"core.doorbell_suppression_ratio", "ratio", "simulated"},
    {"core.ring_cq_posted", "count", "simulated"},
    {"host.interrupts", "count", "simulated"},
    {"host.batches", "count", "simulated"},
    {"host.batch_size_mean", "count", "simulated"},
    {"host.syscalls", "count", "simulated"},
    {"host.interrupts_per_request", "ratio", "simulated"},
    {"host.daemon_sweeps", "count", "simulated"},
    {"host.slot_visits", "count", "simulated"},
    {"host.useful_visit_ratio", "ratio", "simulated"},
    {"osk.workqueue_tasks", "count", "simulated"},
    {"osk.workqueue_steals", "count", "simulated"},
    {"osk.workqueue_spills", "count", "simulated"},
    {"osk.cpu_util", "ratio", "simulated"},
    {"osk.ssd_bytes", "bytes", "simulated"},
    {"osk.ssd_requests", "count", "simulated"},
    {"osk.ssd_delayed_requests", "count", "simulated"},
    {"osk.ssd_mbps", "MB/s", "simulated"},
    {"osk.tcp_segs_sent", "count", "simulated"},
    {"osk.tcp_retransmits", "count", "simulated"},
    {"osk.tcp_backpressure_stalls", "count", "simulated"},
    {"osk.tcp_copied_bytes", "bytes", "simulated"},
    {"osk.tcp_zerocopy_bytes", "bytes", "simulated"},
    {"osk.epoll_waits", "count", "simulated"},
    {"osk.epoll_wakeups", "count", "simulated"},
    {"mem.gpu_bytes", "bytes", "simulated"},
    {"mem.cpu_bytes", "bytes", "simulated"},
    {"bench.corpus_build_s", "s", "host"},
    {"bench.verify_s", "s", "host"},
    {"bench.generator_late_p99_us", "us", "simulated"},
    {"bench.generator_late_mean_us", "us", "simulated"},
    {"bench.rss_growth_mb_per_rep", "MB", "host"},
    {"bench.reference_loop_ms", "ms", "host"},
    {"gsan.reports", "count", "simulated"},
    {"trace.overhead_pct", "%", "host"},
    {"trace.spans", "count", "host"},
    {"trace.reps", "count", "host"},
};

constexpr int kMinReps = 3;

/**
 * Seconds the reference loop takes on the calibration host (4-vCPU
 * Xeon VM at 2.1 GHz): host_s and setup_s are seconds on a host where
 * it takes this long.
 */
constexpr double kReferenceS = 0.040;

/** Median over the repetitions of @p field scaled to reference speed. */
double
atReferenceSpeed(const std::vector<RepResult> &reps,
                 const std::vector<double> &ref, double RepResult::*field)
{
    std::vector<double> v;
    for (std::size_t i = 0; i < reps.size(); ++i)
        v.push_back(reps[i].*field / ref[i] * kReferenceS);
    return median(v);
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<wordcount-ssd|gkv-ring|pread-daemon|gmc-wi> --seed <n> "
                 "--seconds <s> --trace <0|1> [--size full|small] "
                 "[--trace-dir <dir>]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseUnsigned(const char *flag, const char *text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

std::vector<double>
collect(const std::vector<RepResult> &reps, double RepResult::*field)
{
    std::vector<double> v;
    for (const RepResult &r : reps)
        v.push_back(r.*field);
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool small = false;
    std::string trace_dir = ".bench_build/traces";
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *val = argv[++i];
        if (flag == "--workload")
            name = val;
        else if (flag == "--seed")
            seed = parseUnsigned("--seed", val);
        else if (flag == "--seconds")
            seconds = static_cast<double>(parseUnsigned("--seconds", val));
        else if (flag == "--trace")
            trace = parseUnsigned("--trace", val) != 0;
        else if (flag == "--size")
            small = std::strcmp(val, "small") == 0;
        else if (flag == "--trace-dir")
            trace_dir = val;
        else
            usage(("unknown flag " + flag).c_str());
    }
    const Workload *w = nullptr;
    for (const Workload &cand : workloads())
        if (name == cand.name)
            w = &cand;
    if (w == nullptr)
        usage(("unknown workload '" + name + "'").c_str());

    // glibc raises its mmap threshold after the first large free, so
    // large blocks move from fresh mappings to the reused heap partway
    // through a run and set-up time halves at an unpredictable
    // repetition. Pinning the thresholds high puts every repetition on
    // the path a long-running process (a test binary, a gmc sweep)
    // settles into: large blocks come from the heap and are reused.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 64 << 20);

    RunConfig cfg;
    cfg.seed = seed;
    cfg.small = small;

    // Repetitions for at least --seconds, never fewer than kMinReps.
    // The reference loop runs between them: the host's speed
    // drifts by tens of percent over minutes on a shared host, and the
    // ratio to the loop cancels that drift where no estimator over raw
    // times can.
    // A traced run alternates untraced and traced repetitions, so slow
    // drift of the host's speed does not land on one side of the
    // tracing-overhead comparison.
    // Peak RSS is read after the first repetition, so it does not grow
    // with the number of repetitions that fit; what each later one
    // retains is reported separately.
    std::vector<RepResult> reps, traced;
    std::vector<double> ref, traced_ref;
    Recorder first_trace(true);
    double peak_rss = 0.0;
    std::vector<double> rss;
    // Each repetition's reference time is the mean of the loop's passes
    // right before and right after it.
    double ref_before = referenceLoopS();
    auto bracket = [&ref_before](std::vector<double> &to) {
        const double after = referenceLoopS();
        to.push_back((ref_before + after) / 2.0);
        ref_before = after;
    };
    const auto t0 = Clock::now();
    while (reps.size() < kMinReps || secondsSince(t0) < seconds) {
        Recorder off_rec(false);
        reps.push_back(w->run(cfg, off_rec));
        bracket(ref);
        if (reps.size() == 1)
            peak_rss = peakRssMb();
        if (trace) {
            Recorder rec(true);
            traced.push_back(w->run(cfg, rec));
            bracket(traced_ref);
            if (traced.size() == 1)
                first_trace = std::move(rec);
        }
        rss.push_back(currentRssMb());
    }
    // Untimed correctness pass with gsan on.
    cfg.gsan = true;
    Recorder off(false);
    const RepResult gsan_pass = w->run(cfg, off);

    // Every repetition must agree on every simulated figure.
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> problems;
    const std::uint64_t digest = reps.front().digest.value();
    auto agree = [&](const RepResult &r, const char *pass) {
        attempted += r.attempted + 1;
        failed += r.failed;
        if (!r.problem.empty())
            problems.push_back(std::string(pass) + ": " + r.problem);
        if (r.digest.value() != digest) {
            ++failed;
            problems.push_back(std::string(pass) +
                               ": nondeterminism, the sim digest changed "
                               "between repetitions");
        }
    };
    for (const RepResult &r : reps)
        agree(r, "timed");
    for (const RepResult &r : traced)
        agree(r, "traced");
    agree(gsan_pass, "gsan pass");
    const RepResult &first = reps.front();

    std::printf("perfbench %s  seed %llu  size %s  reps %zu  traced reps "
                "%zu\n",
                w->name, static_cast<unsigned long long>(seed),
                small ? "small" : "full", reps.size(), traced.size());
    std::printf("  %-22s %-16llx %s\n", "sim_digest",
                static_cast<unsigned long long>(digest),
                "FNV-1a over sim_* metrics, counters and outputs");
    std::printf("  %-22s %-16.6g %s (%llu failed of %llu attempted)\n",
                "error_rate",
                attempted == 0 ? 0.0
                               : static_cast<double>(failed) /
                                     static_cast<double>(attempted),
                "ratio", static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    for (const std::string &p : problems)
        std::printf("  FAILED %s\n", p.c_str());

    std::map<std::string, double> e2e = first.sim;
    const std::vector<double> host_all = collect(reps, &RepResult::hostS);
    const double host_s = atReferenceSpeed(reps, ref, &RepResult::hostS);
    e2e["host_s"] = host_s;
    e2e["setup_s"] = atReferenceSpeed(reps, ref, &RepResult::setupS);
    e2e["peak_rss_mb"] = peak_rss;

    std::string json = "{\"correct\": ";
    json += failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    bool first_metric = true;
    auto emit = [&](const Metric &m, double v, const char *note) {
        std::printf("  %-32s %-16.10g %-7s %s clock%s\n", m.name, v, m.unit,
                    m.clock, note);
        char buf[160];
        std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, "
                      "\"unit\": \"%s\"}",
                      first_metric ? "" : ", ", m.name, v, m.unit);
        json += buf;
        first_metric = false;
    };

    if (!trace) {
        const std::string n = std::to_string(reps.size());
        const std::string host_note =
            ", median of " + n + " reps at reference speed (raw median " +
            std::to_string(median(host_all)) + " s, reference loop " +
            std::to_string(median(ref) * 1e3) + " ms)";
        const std::string setup_note =
            ", median of " + n + " reps at reference speed";
        const std::string lat_note =
            ", " + std::to_string(first.latencySamples) + " samples";
        for (const Metric &m : kEndToEnd) {
            const std::string nm = m.name;
            std::string note;
            if (nm == "host_s")
                note = host_note;
            else if (nm == "setup_s")
                note = setup_note;
            else if (nm == "sim_p50_us" || nm == "sim_p99_us")
                note = lat_note;
            emit(m, e2e[m.name], note.c_str());
        }
    } else {
        // Simulated counters are identical in every repetition; host
        // figures come from the untraced ones, so span stamping does not
        // inflate them. The traced ones give the overhead.
        std::map<std::string, double> layer = first.layer;
        auto host_median = [&reps](const std::string &key) {
            std::vector<double> v;
            for (const RepResult &r : reps)
                v.push_back(r.layer.at(key));
            return median(v);
        };
        const double untraced_s = host_s;
        const double traced_s =
            atReferenceSpeed(traced, traced_ref, &RepResult::hostS);
        // gmc-wi's host_s also covers the explored schedules' events.
        const double events = layer["sim.events"] + layer["explore.events"];
        layer["sim.host_ns_per_event"] = host_s * 1e9 / events;
        layer["sim.latency_samples"] =
            static_cast<double>(first.latencySamples);
        if (layer.count("explore.host_us_per_schedule") != 0) {
            layer["explore.host_us_per_schedule"] =
                host_median("explore.host_us_per_schedule");
            layer["setup.default_system_build_us"] =
                host_median("setup.default_system_build_us");
        }
        layer["setup.system_build_us"] =
            median(collect(reps, &RepResult::systemBuildUs));
        layer["bench.corpus_build_s"] =
            median(collect(reps, &RepResult::inputBuildS));
        layer["bench.verify_s"] = median(collect(reps, &RepResult::verifyS));
        layer["gsan.reports"] = static_cast<double>(gsan_pass.gsanReports);
        layer["trace.overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0;
        // Each sample follows one untraced and one traced repetition.
        layer["bench.rss_growth_mb_per_rep"] =
            (rss.back() - rss.front()) /
            (2.0 * static_cast<double>(rss.size() - 1));
        layer["trace.spans"] = static_cast<double>(first_trace.spans());
        layer["trace.reps"] = static_cast<double>(traced.size());
        layer["bench.reference_loop_ms"] = median(ref) * 1e3;
        std::printf("  traced run: host_s %.4f traced vs %.4f untraced "
                    "(medians of %zu and %zu reps)\n",
                    traced_s, untraced_s, traced.size(), reps.size());
        std::error_code ec;
        std::filesystem::create_directories(trace_dir, ec);
        const std::string path = trace_dir + "/" + w->name + "-seed" +
                                 std::to_string(seed) + ".json";
        if (first_trace.writeChrome(path))
            std::printf("  spans: %s\n", path.c_str());
        else
            std::printf("  spans: could not write %s\n", path.c_str());
        for (const Metric &m : kPerLayer)
            emit(m, layer[m.name], "");
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
