/**
 * @file
 * Seeded protocol bugs ("mutants") for the verification stack.
 *
 * Each Mutant deliberately re-introduces one ordering bug that the
 * GENESYS protocol exists to prevent, so gsan's detectors (DESIGN.md
 * §9) and gmc's oracles (§11) can be regression-tested end to end. A
 * mutation point in the service path is one line:
 *
 *     if (mutant::on(Mutant::SkipPreBarrier)) ...
 *
 * The active set is process-global, like gmc::Probe: the epoll test
 * rigs have no System, and core and osk share no config object. The
 * only way to turn a mutant on is an RAII mutant::Scope; gstat's
 * mutant-scope rule confines it in src/ to this header and the gmc
 * scenario runner, so production paths never open one. With no scope
 * open every point reads false and simulated results are unchanged.
 */

#ifndef GENESYS_SUPPORT_MUTANT_HH
#define GENESYS_SUPPORT_MUTANT_HH

#include <cstdint>
#include <initializer_list>

#include "support/types.hh"

namespace genesys
{

enum class Mutant : std::uint8_t
{
    /// Drop the required pre-invocation work-group barrier.
    SkipPreBarrier,
    /// Drop the required post-invocation work-group barrier.
    SkipPostBarrier,
    /// After publishing a blocking request, read the result payload
    /// without waiting for Finished.
    RacyPeekBeforeFinished,
    /// Peek the result payload of a finished slot without the
    /// consume() acquire.
    RacyConsume,
    /// HaltResume: compute mutant::kHaltGapCycles between the final
    /// polling sweep and the halt, opening the window where the CPU's
    /// wake fires into a not-yet-halted wave.
    HaltGap,
    /// Ring the shard doorbell (s_sendmsg) before the slot publish.
    /// Invisible under FIFO tie-breaking; an adversarial schedule
    /// services the wave while its slot is still Populating.
    DoorbellBeforePublish,
    /// Deliver the HaltResume wake before complete(). The woken
    /// wave's sweep finds the slot still Processing and halts again.
    WakeBeforeComplete,
    /// Skip the batch doorbell when the SQ was observed non-empty
    /// before the claim. The sample is stale by publish time; a
    /// schedule that drains the observed entry first strands the batch.
    RingDropDoorbell,
    /// Post the CQ completion event (and yield) before servicing the
    /// SQ entry: a polling waiter re-sweeps once, finds its slot
    /// unfinished, and never re-sweeps without a further event.
    RingCompleteBeforePublish,
    /// Cache the SQ head across claim retries instead of re-reading
    /// the counter line, so a full-looking ring spins forever.
    RingStaleHead,
    /// The host reads the oldest SQ entry without the consume
    /// acquire (ring payload race).
    RingRacySqConsume,
    /// epoll drops the first readiness edge an EpollSystem records:
    /// the probe state advances but no pending bit is latched, so an
    /// edge-triggered consumer sleeps forever (gsan's edge channel
    /// sees the probe without the record).
    LostEdge,
    /// epoll_wait suspends for mutant::kEpollSleepGap between its
    /// readiness probe and its sleep without re-probing, so a
    /// notification landing in the gap is really lost.
    EpollSleepGap,
};

namespace mutant
{

/// HaltGap's window: ~130 simulated ms at the default GPU clock, long
/// enough for the CPU to complete and fire its wake into the wave.
inline constexpr std::uint64_t kHaltGapCycles = 100'000'000;
/// EpollSleepGap's window.
inline constexpr Tick kEpollSleepGap = ticks::ms(1);

/** A set of mutants (empty = the shipped protocol). */
class Set
{
  public:
    constexpr Set() = default;
    constexpr Set(std::initializer_list<Mutant> mutants)
    {
        for (Mutant m : mutants)
            bits_ |= bit(m);
    }

    constexpr bool has(Mutant m) const { return (bits_ & bit(m)) != 0; }

  private:
    static constexpr std::uint32_t
    bit(Mutant m)
    {
        return 1u << static_cast<unsigned>(m);
    }

    std::uint32_t bits_ = 0;
};

namespace detail
{

/** The process-global active set (constant-initialized, so the
 *  per-site read is a plain load). */
inline Set &
active()
{
    static Set set;
    return set;
}

} // namespace detail

/** Is @p m planted in the current scope? */
inline bool
on(Mutant m)
{
    return detail::active().has(m);
}

/**
 * Makes @p set the active mutants for the scope's lifetime, then
 * restores the enclosing set: nested scopes replace, never merge, and
 * nothing outlives its scope.
 */
class Scope
{
  public:
    explicit Scope(Set set) : outer_(detail::active())
    {
        detail::active() = set;
    }
    ~Scope() { detail::active() = outer_; }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Set outer_;
};

} // namespace mutant
} // namespace genesys

#endif // GENESYS_SUPPORT_MUTANT_HH
