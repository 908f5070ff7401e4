/**
 * @file
 * gmc footprint probe: records which shared protocol objects each
 * simulated event touches.
 *
 * The gmc model checker (DESIGN.md §11) explores permutations of
 * same-tick event commutations. Its partial-order reduction needs to
 * know when two events are independent — i.e. touch disjoint protocol
 * state — so instrumented call sites (slot FSM entry points, doorbell
 * lines, workqueue queues, wavefront halt/resume, CPU core grants)
 * report every touch here. The ScheduleDriver drains the buffer after
 * each event callback, attributing the accumulated touches to the
 * event that just ran.
 *
 * Disabled (the default) the probe is a single branch per call site;
 * nothing in the modeled-time path changes, so default-schedule runs
 * stay bit-identical.
 */

#ifndef GENESYS_SUPPORT_GMC_PROBE_HH
#define GENESYS_SUPPORT_GMC_PROBE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace genesys::gmc
{

/** Classes of shared protocol objects the checker tracks. */
enum class ProbeKind : std::uint8_t
{
    Slot = 1,     ///< one syscall-area slot (id = slot index)
    Doorbell = 2, ///< one shard's doorbell/interrupt line (id = shard)
    Worker = 3,   ///< one workqueue worker's queue (id = worker index)
    Wave = 4,     ///< one wavefront's halt/resume word (id = hw slot)
    Core = 5,     ///< the CPU core grant (id unused, always 0)
    Ring = 6,     ///< one SQ/CQ counter line (id = 2*shard [+1 for CQ])
};

/** Packed footprint key: kind in the top byte, object id below. */
using ProbeKey = std::uint64_t;

constexpr ProbeKey
probeKey(ProbeKind kind, std::uint64_t id)
{
    return (static_cast<std::uint64_t>(kind) << 56) |
           (id & 0x00FF'FFFF'FFFF'FFFFull);
}

class Probe
{
  public:
    /** Process-global instance shared by all instrumented sites
     *  (inline: the slot scan touches it once per slot). */
    static Probe &
    instance()
    {
        static Probe probe;
        return probe;
    }

    void setEnabled(bool on)
    {
        enabled_ = on;
        buf_.clear();
    }
    bool enabled() const { return enabled_; }

    /** Record that the currently-running event touched (kind, id). */
    void
    touch(ProbeKind kind, std::uint64_t id)
    {
        if (enabled_)
            buf_.push_back(probeKey(kind, id));
    }

    /**
     * Return the touches accumulated since the last drain (sorted,
     * deduplicated) and reset the buffer.
     */
    std::vector<ProbeKey> drain();

    /** Human-readable key, e.g. "slot:3" (counterexample reports). */
    static std::string describe(ProbeKey key);

  private:
    Probe() = default;

    bool enabled_ = false;
    std::vector<ProbeKey> buf_;
};

} // namespace genesys::gmc

#endif // GENESYS_SUPPORT_GMC_PROBE_HH
