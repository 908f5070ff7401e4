/**
 * @file
 * Measurement plumbing shared by the perfbench workloads: host wall
 * clocks, the span recorder behind the traced run, the FNV digest over
 * simulated results, and small order statistics.
 *
 * Host wall clocks live here and only here: the simulator itself must
 * not read them (glint's wall-clock rule covers src/).
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "support/types.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start);

/** FNV-1a over simulated outputs; equal inputs give equal digests. */
class Digest
{
  public:
    void add(std::uint64_t v);
    void add(double v);
    void add(std::string_view s);
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

/**
 * Spans on both clocks, kept in memory and written once at the end as
 * Chrome trace-event JSON: the host-clock copy of every span goes to
 * process 1, the simulated-clock copy to process 2, so one timeline
 * viewer shows where wall time went next to where simulated time went.
 * A disabled recorder drops everything and costs one branch per span.
 */
class Recorder
{
  public:
    explicit Recorder(bool enabled);

    bool enabled() const { return enabled_; }

    /** Host microseconds since the recorder was made. */
    double hostUs() const;

    /**
     * Record one span. Simulated bounds are ticks (ns); pass
     * sim_end < sim_start for a span with no simulated extent.
     */
    void span(std::string name, std::string cat, std::uint32_t track,
              double host_start_us, double host_end_us,
              genesys::Tick sim_start, genesys::Tick sim_end,
              std::uint64_t id = 0);

    std::size_t spans() const { return spans_.size(); }

    /** Write every span as a Chrome trace-event JSON array. */
    bool writeChrome(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        std::string cat;
        std::uint32_t track;
        double hostStartUs;
        double hostEndUs;
        genesys::Tick simStart;
        genesys::Tick simEnd;
        std::uint64_t id;
    };

    bool enabled_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/**
 * A host-timed phase that also records a span when tracing: the end
 * time is taken by finish(), which returns the phase's wall seconds.
 */
class Phase
{
  public:
    Phase(Recorder &rec, std::string name, genesys::Tick sim_start);
    double finish(genesys::Tick sim_end);

  private:
    Recorder &rec_;
    std::string name_;
    Clock::time_point start_;
    double startUs_;
    genesys::Tick simStart_;
};

/** Linear-interpolated percentile of @p v (copied, p in [0, 100]). */
double percentile(std::vector<double> v, double p);
double median(const std::vector<double> &v);

/** Peak resident set size of this process in MiB. */
double peakRssMb();

/**
 * Host seconds of one pass of a fixed reference loop: a miniature of
 * the simulator's hot path (a time-ordered heap of events whose
 * callbacks own small heap blocks, and string-keyed map lookups),
 * written in this benchmark's own code so that no change to the
 * simulator moves it. Timed next to each repetition, it gives the
 * host's current speed for this kind of code. On a shared host that
 * speed drifts with the neighbours' load while the core clock stays
 * put, so a plain arithmetic loop does not see the drift; this loop
 * does.
 */
double referenceLoopS();

/** Current resident set size of this process in MiB. */
double currentRssMb();

/** What one repetition of a workload measured. */
struct RepResult
{
    double setupS = 0.0;        ///< System construction + input build
    double systemBuildUs = 0.0; ///< core::System constructor alone
    double inputBuildS = 0.0;   ///< input generation alone
    double hostS = 0.0;         ///< the measured phase
    double verifyS = 0.0;       ///< output checks, kept out of hostS
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t gsanReports = 0;
    std::uint64_t latencySamples = 0;
    /// Simulated end-to-end metrics (sim_*), deterministic per seed.
    std::map<std::string, double> sim;
    /// Per-layer counters, read from public accessors after the run.
    std::map<std::string, double> layer;
    Digest digest;
    /// First failure, for the report.
    std::string problem;

    /** Count one operation; @p ok false marks it failed. */
    void check(bool ok, const std::string &what);
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
