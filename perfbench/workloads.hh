/**
 * @file
 * The four perfbench workloads. Each repetition starts from a cold
 * core::System, builds its inputs from the seed, runs the measured
 * phase through the public API, reads every layer's public counters,
 * and checks every output.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <vector>

#include "harness.hh"

namespace perfbench
{

struct RunConfig
{
    /// Feeds input generation and the core::System seed, nothing else.
    std::uint64_t seed = 1;
    /// Self-check size: every check on, seconds to run.
    bool small = false;
    /// The untimed correctness pass runs with gsan enabled.
    bool gsan = false;
};

using WorkloadFn = RepResult (*)(const RunConfig &, Recorder &);

struct Workload
{
    const char *name;
    WorkloadFn run;
};

const std::vector<Workload> &workloads();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
