/**
 * @file
 * The syscall area and its per-work-item slots.
 *
 * Figure 5 of the paper gives the slot layout: requested syscall
 * number, request state, up to six arguments (the argument field is
 * re-purposed for the return value), and padding to one cache line to
 * avoid false sharing and to let single-line atomics bypass the GPU's
 * non-coherent L1 (Section VI).
 *
 * Figure 6 gives the slot state machine:
 *
 *   free -> populating -> ready -> processing -> finished -> free
 *                                       |  (non-blocking)
 *                                       +-----------------> free
 *
 * GPU side drives free->populating->ready (green in the figure); the
 * CPU drives ready->processing->finished/free (blue); the GPU consumes
 * finished->free for blocking calls.
 */

#ifndef GENESYS_CORE_SLOT_HH
#define GENESYS_CORE_SLOT_HH

#include <cstdint>
#include <vector>

#include "core/params.hh"
#include "core/ring.hh"
#include "gpu/gpu.hh"
#include "osk/net.hh"
#include "osk/syscalls.hh"
#include "support/gmc_probe.hh"
#include "support/logging.hh"
#include "support/types.hh"

namespace genesys::gsan
{
class Sanitizer;
}

namespace genesys::core
{

enum class SlotState : std::uint8_t
{
    Free,
    Populating,
    Ready,
    Processing,
    Finished,
};

const char *slotStateName(SlotState s);

/**
 * Fig 6 edge-legality predicate, shared by the slot FSM checker and
 * the property tests. The only legal transitions are
 *   Free->Populating (GPU claim), Populating->Ready (GPU publish),
 *   Ready->Processing (CPU take), Processing->Finished (CPU complete,
 *   blocking), Processing->Free (CPU complete, non-blocking), and
 *   Finished->Free (GPU consume).
 * @p blocking disambiguates the two Processing exits.
 */
bool slotTransitionLegal(SlotState from, SlotState to, bool blocking);

/** How a waiting GPU requester is woken (Section V-C). */
enum class WaitMode : std::uint8_t
{
    Polling,
    HaltResume,
};

/**
 * One 64-byte syscall-area slot. The simulator stores it unpacked;
 * the modeled memory footprint is params.slotBytes.
 */
class SyscallSlot
{
  public:
    SlotState state() const { return state_; }

    /** GPU: atomically claim a free slot. @return false if not free. */
    bool claim();

    /** GPU: fill arguments and publish the request. */
    void publish(int sysno, const osk::SyscallArgs &args, bool blocking,
                 WaitMode wait_mode, std::uint32_t hw_wave_slot);

    /**
     * CPU: atomically take a ready request for processing.
     * @return false if the slot is not ready. Inline so a scan's
     * not-Ready exit is one probe touch and one compare — no call.
     */
    bool
    beginProcessing()
    {
        gmc::Probe::instance().touch(gmc::ProbeKind::Slot, gsanId_);
        if (state_ != SlotState::Ready)
            return false;
        takeReady();
        return true;
    }

    /**
     * CPU: deposit the result. Blocking requests go to Finished and
     * await GPU consumption; non-blocking requests free immediately.
     */
    void complete(std::int64_t result);

    /** GPU: read the result of a finished blocking call, freeing it. */
    std::int64_t consume();

    bool ready() const { return state_ == SlotState::Ready; }
    bool finished() const { return state_ == SlotState::Finished; }
    bool blocking() const { return blocking_; }
    WaitMode waitMode() const { return waitMode_; }
    int sysno() const { return sysno_; }
    const osk::SyscallArgs &args() const { return args_; }
    std::uint32_t hwWaveSlot() const { return hwWaveSlot_; }

    /** Fig 6 transitions this slot has performed (checker passes). */
    std::uint64_t transitions() const { return transitions_; }

    /**
     * Force the raw state, bypassing the normal entry points but NOT
     * the invariant checker: an illegal edge panics exactly as it
     * would from a buggy caller. Test/property-harness hook.
     */
    void forceState(SlotState to) { transition(to); }

    /**
     * Attach the happens-before sanitizer; @p id is this slot's index
     * in the syscall area (gsan's variable name for the payload).
     * The protocol entry points then emit acquire/release/access
     * events on behalf of the current gsan actor.
     */
    void attachSanitizer(gsan::Sanitizer *gsan, std::uint32_t id)
    {
        gsan_ = gsan;
        gsanId_ = id;
    }

    /**
     * Test hook modeling a buggy consumer: read the result payload
     * WITHOUT the acquire the Finished->Free transition provides.
     * gsan should flag this as a payload race against the CPU's write.
     */
    std::int64_t racyPeekResult() const;

  private:
    /** beginProcessing()'s Ready exit: gsan acquire, Ready->Processing. */
    void takeReady();

    /**
     * The FSM invariant checker (tentpole): every state change funnels
     * through here and is validated against Fig 6, so an injected
     * fault (or a buggy recovery path) can corrupt a slot only by
     * panicking loudly, never silently.
     */
    void transition(SlotState to);

    SlotState state_ = SlotState::Free;
    bool blocking_ = true;
    WaitMode waitMode_ = WaitMode::Polling;
    int sysno_ = 0;
    osk::SyscallArgs args_;
    std::int64_t result_ = 0;
    std::uint32_t hwWaveSlot_ = 0;
    std::uint64_t transitions_ = 0;
    gsan::Sanitizer *gsan_ = nullptr;
    std::uint32_t gsanId_ = 0;
};

/**
 * The preallocated shared-memory syscall area: one slot per active
 * hardware work-item ("1.25 MBs" on the paper's platform).
 *
 * The area is divided into params.areaShards shards, each owning the
 * slots of a contiguous block of CUs plus a private doorbell cache
 * line and per-shard issue/service counters. Shard geometry is pure
 * address arithmetic — slot indices are unchanged — so areaShards=1
 * degenerates to the paper's single flat area.
 */
class SyscallArea
{
  public:
    SyscallArea(const gpu::GpuConfig &gpu_config,
                const GenesysParams &params);

    /** Slot for a hardware work-item (wave slot x 64 + lane). */
    SyscallSlot &
    slot(std::uint32_t hw_item_slot)
    {
        GENESYS_ASSERT(hw_item_slot < slots_.size(),
                       "slot %u out of range", hw_item_slot);
        return slots_[hw_item_slot];
    }
    const SyscallSlot &
    slot(std::uint32_t hw_item_slot) const
    {
        GENESYS_ASSERT(hw_item_slot < slots_.size(),
                       "slot %u out of range", hw_item_slot);
        return slots_[hw_item_slot];
    }

    /** Modeled address of the slot's cache line. */
    mem::Addr slotAddr(std::uint32_t hw_item_slot) const;

    std::size_t slotCount() const { return slots_.size(); }
    std::uint64_t areaBytes() const
    {
        return slots_.size() * params_.slotBytes;
    }

    /** Slots of one wavefront: [first, first + wavefrontSize). */
    std::uint32_t
    firstItemSlotOfWave(std::uint32_t hw_wave_slot) const
    {
        return hw_wave_slot * wavefrontSize_;
    }
    std::uint32_t wavefrontSize() const { return wavefrontSize_; }

    // --- shard geometry --------------------------------------------
    std::uint32_t shardCount() const { return shardCount_; }
    std::uint32_t cusPerShard() const { return cusPerShard_; }

    std::uint32_t
    shardOfCu(std::uint32_t cu) const
    {
        return cu / cusPerShard_;
    }
    /** Shard of a hardware wave slot (hw ids are per-CU blocks). */
    std::uint32_t
    shardOfWave(std::uint32_t hw_wave_slot) const
    {
        return shardOfCu(hw_wave_slot / maxWavesPerCu_);
    }
    std::uint32_t
    shardOfSlot(std::uint32_t hw_item_slot) const
    {
        return shardOfWave(hw_item_slot / wavefrontSize_);
    }

    /** Item slots owned by @p shard: [first, first + count). */
    std::uint32_t shardFirstSlot(std::uint32_t shard) const;
    std::uint32_t shardSlotCount() const;

    /**
     * Modeled address of the shard's doorbell cache line (one line per
     * shard, laid out after the slot array so doorbells never false-
     * share with slots or each other).
     */
    mem::Addr doorbellAddr(std::uint32_t shard) const;

    /** True when every slot is Free (no request in any pipeline
     *  stage) — the drain()/teardown postcondition of Section IX. */
    bool quiescent() const;
    /** Per-shard quiescence: every slot of @p shard is Free. */
    bool quiescent(std::uint32_t shard) const;

    // --- per-shard SQ/CQ rings (DESIGN.md §13) ---------------------
    /** Ring submission enabled (params.useRings)? Geometry is always
     *  constructed so tests can poke rings without the mode switch. */
    bool ringsEnabled() const { return params_.useRings; }

    SyscallRing &sq(std::uint32_t shard);
    SyscallRing &cq(std::uint32_t shard);
    const SyscallRing &sq(std::uint32_t shard) const;
    const SyscallRing &cq(std::uint32_t shard) const;

    /** gmc/gsan channel keys: SQs are even, CQs odd. */
    std::uint64_t sqRingKey(std::uint32_t shard) const
    {
        return 2ull * shard;
    }
    std::uint64_t cqRingKey(std::uint32_t shard) const
    {
        return 2ull * shard + 1;
    }

    /**
     * Modeled addresses of each ring's counter cache line, laid out
     * after the doorbell lines (one line per ring; entries share the
     * counter line for modeling purposes — a batch is index-sized).
     */
    mem::Addr sqAddr(std::uint32_t shard) const;
    mem::Addr cqAddr(std::uint32_t shard) const;

    /** True when every shard's SQ has no published, unconsumed entry. */
    bool ringsIdle() const;

    // --- per-shard iovec descriptor pages (vectored submission) ----
    /**
     * Each shard owns a descriptor page statically partitioned into
     * one window per resident wave; a lane stages its gather/scatter
     * list in its wave's window and the single SQ entry carries the
     * list by reference. Static partitioning means no allocation
     * protocol on the hot path — the window belongs to the wave for
     * the lifetime of the call.
     */
    std::uint32_t iovecEntriesPerLane() const
    {
        return params_.iovecEntriesPerLane;
    }
    std::uint32_t iovecEntriesPerWave() const
    {
        return params_.iovecEntriesPerLane * wavefrontSize_;
    }
    /** This wave's window within its shard's descriptor page. */
    osk::IoVec *iovecWindow(std::uint32_t hw_wave_slot);
    /** Modeled bytes of one shard's page. */
    std::uint64_t iovecPageBytes() const;
    /** Modeled address of @p shard's descriptor page. */
    mem::Addr iovecPageAddr(std::uint32_t shard) const;
    /** Modeled address of the wave's window (for timed stores). */
    mem::Addr iovecWindowAddr(std::uint32_t hw_wave_slot) const;

    // --- per-shard ring stats --------------------------------------
    void noteRingBatch(std::uint32_t shard, std::uint32_t entries)
    {
        ++ringBatches_[shard];
        ringEntriesSubmitted_[shard] += entries;
    }
    std::uint64_t ringBatchesOnShard(std::uint32_t shard) const
    {
        return ringBatches_[shard];
    }
    std::uint64_t ringEntriesOnShard(std::uint32_t shard) const
    {
        return ringEntriesSubmitted_[shard];
    }
    std::uint64_t ringBatchesTotal() const;
    std::uint64_t ringEntriesTotal() const;
    /** Mean entries per published SQ batch (0 when no batch yet). */
    double ringBatchOccupancy() const;

    // --- per-shard stats -------------------------------------------
    void noteIssued(std::uint32_t shard) { ++issued_[shard]; }
    void noteProcessed(std::uint32_t shard) { ++processed_[shard]; }
    std::uint64_t issuedOnShard(std::uint32_t shard) const
    {
        return issued_[shard];
    }
    std::uint64_t processedOnShard(std::uint32_t shard) const
    {
        return processed_[shard];
    }

    /** Attach the sanitizer to every slot (id = slot index) and to
     *  every ring (key = sqRingKey/cqRingKey). */
    void attachSanitizer(gsan::Sanitizer *gsan);

  private:
    GenesysParams params_;
    std::uint32_t wavefrontSize_;
    std::uint32_t maxWavesPerCu_;
    std::uint32_t numCus_;
    std::uint32_t shardCount_;
    std::uint32_t cusPerShard_;
    std::vector<SyscallSlot> slots_;
    std::vector<std::uint64_t> issued_;
    std::vector<std::uint64_t> processed_;
    std::vector<SyscallRing> sqRings_;
    std::vector<SyscallRing> cqRings_;
    /** One descriptor page per shard (iovecPageBytes() modeled). */
    std::vector<std::vector<osk::IoVec>> iovecPages_;
    std::vector<std::uint64_t> ringBatches_;
    std::vector<std::uint64_t> ringEntriesSubmitted_;
};

} // namespace genesys::core

#endif // GENESYS_CORE_SLOT_HH
