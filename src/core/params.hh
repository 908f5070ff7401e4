/**
 * @file
 * GENESYS-specific parameters: the syscall area geometry and the
 * invocation/communication knobs of the design space (Section V).
 */

#ifndef GENESYS_CORE_PARAMS_HH
#define GENESYS_CORE_PARAMS_HH

#include <cstdint>

#include "support/types.hh"

namespace genesys::core
{

/**
 * How a shard's service work is steered onto workqueue workers
 * (service-path architecture, DESIGN.md §10).
 */
enum class SteeringPolicy : std::uint8_t
{
    /// Shard s prefers worker s % activeWorkers: a shard's batches
    /// serialize on "its" worker, giving per-shard cache affinity.
    ShardAffinity,
    /// Batches rotate over the active workers regardless of shard.
    RoundRobin,
};

struct GenesysParams
{
    /// Virtual base of the preallocated shared syscall area. Only used
    /// for cache-line modeling; slots are one line each (Section VI).
    std::uint64_t syscallAreaBase = 0x2000'0000ull;
    /// One slot per active hardware work-item, 64 bytes each
    /// ("our system uses 64 bytes per slot, totaling 1.25 MBs").
    std::uint32_t slotBytes = 64;

    /// Syscall-area shards. Each shard owns the slots of a contiguous
    /// block of CUs plus its own doorbell line and stats; the GPU
    /// routes s_sendmsg interrupts by originating CU. Must divide
    /// numCus. 1 (the paper's single area) is timing-identical to the
    /// pre-shard implementation.
    std::uint32_t areaShards = 1;
    /// Shard -> workqueue-worker steering policy.
    SteeringPolicy steering = SteeringPolicy::ShardAffinity;

    /// Ring-based submission (DESIGN.md §13): each shard gets a
    /// submission queue (SQ) of slot indices and a completion queue
    /// (CQ); wavefronts publish a batch and ring one doorbell per
    /// batch, the host consumes in bulk and posts completion events.
    /// Off (the default) preserves the paper's per-slot doorbell path
    /// bit-identically (pinned by tests/test_timing_parity.cc).
    bool useRings = false;
    /// SQ/CQ entries per shard. Need not be a power of two.
    std::uint32_t ringEntries = 64;
    /// Vectored submission: iovec descriptors each lane may stage in
    /// its wave's window of the shard descriptor page. One SQ entry
    /// then carries the whole gather/scatter list by reference
    /// (readv/writev/sendmsg/recvmsg), instead of one slot per
    /// buffer.
    std::uint32_t iovecEntriesPerLane = 4;
    /// Ring mode: after draining its shard's SQ, the consume task
    /// lingers this long polling for more batches before retiring
    /// (the SPDK poll-mode service shape). Entries published while it
    /// lingers are picked up within one poll slice and skip the whole
    /// doorbell/interrupt/wakeup pipeline — their doorbells are
    /// suppressed. 0 retires the consumer as soon as the SQ is dry
    /// (the model checker runs with 0 to keep schedules bounded).
    Tick ringConsumerGrace = ticks::us(30);
    /// Poll cadence of a lingering consume task. The CPU core is
    /// released across each idle slice, so lingering consumers do not
    /// starve the service chunks (or other shards' consumers).
    Tick ringConsumerPoll = ticks::ns(500);

    /// GPU-side polling cadence while waiting for slot completion.
    std::uint64_t pollIntervalCycles = 200;

    /// Per-lane slot-populate cost beyond the atomics (argument stores
    /// pipeline across the wavefront's lanes).
    Tick perLanePopulate = ticks::ns(15);

    /// Software L1 flush before consumer (write-like) system calls so
    /// GPU-produced buffer data is visible to the CPU (Section VI).
    Tick l1FlushCost = ticks::ns(900);

    /// Interrupt coalescing (Section V-B): the handler waits up to
    /// coalesceWindow for more requests, bounded by coalesceMaxBatch.
    /// window == 0 disables coalescing. Configured at runtime through
    /// the sysfs-style interface GenesysHost exposes.
    Tick coalesceWindow = 0;
    std::uint32_t coalesceMaxBatch = 1;

    /// POSIX error-path recovery (GPU client + host service path).
    /// A blocking requester transparently restarts -EINTR results up
    /// to this many times per call before surfacing the error.
    std::uint32_t eintrMaxRestarts = 64;
    /// -EAGAIN is retried at most this many times per request. A
    /// leader-lane (work-group/kernel) call waits eagainBackoffCycles
    /// GPU cycles before its first retry, doubling per consecutive
    /// retry; a work-item wave stalls a flat eagainBackoffCycles once
    /// per round in which any lane is retrying.
    std::uint32_t eagainMaxRetries = 8;
    std::uint64_t eagainBackoffCycles = 1024;
};

} // namespace genesys::core

#endif // GENESYS_CORE_PARAMS_HH
