/**
 * @file
 * GpuSyscalls implementation.
 */

#include "client.hh"

#include <algorithm>
#include <bit>
#include <cerrno>

#include "support/gmc_probe.hh"
#include "support/gsan.hh"
#include "support/logging.hh"
#include "support/mutant.hh"
#include "support/trace.hh"

namespace genesys::core
{

const char *
granularityName(Granularity g)
{
    switch (g) {
      case Granularity::WorkItem:
        return "work-item";
      case Granularity::WorkGroup:
        return "work-group";
      case Granularity::Kernel:
        return "kernel";
    }
    return "?";
}

const char *
orderingName(Ordering o)
{
    return o == Ordering::Strong ? "strong" : "relaxed";
}

const char *
blockingName(Blocking b)
{
    return b == Blocking::Blocking ? "blocking" : "non-blocking";
}

const char *
waitModeName(WaitMode w)
{
    return w == WaitMode::Polling ? "polling" : "halt-resume";
}

bool
GpuSyscalls::sanOn() const
{
    return gsan_ != nullptr && gsan_->enabled();
}

void
GpuSyscalls::sanActor(gpu::WavefrontCtx &ctx)
{
    // Re-established before every instrumented slot op: any co_await
    // in between may have interleaved another wave or CPU worker.
    gsan_->setActor(gsan_->waveThread(ctx.hwWaveSlot()));
}

Tick
GpuSyscalls::slotOpCost(Tick atomic, bool lead) const
{
    // Ring mode: the batch's SQ claim and tail release inside
    // ringSubmit are the fabric operations that serialize it against
    // other agents and make it visible. A slot claim is then a CAS on
    // the lane's own statically-assigned line (it only ever races the
    // host recycling that same slot) and a slot publish is plain
    // stores into space the lane exclusively claimed, so both are
    // charged at populate cost, not as second global round-trips.
    return lead && !params_.useRings ? atomic : params_.perLanePopulate;
}

sim::Task<>
GpuSyscalls::claimSlot(gpu::WavefrontCtx &ctx, std::uint32_t item_slot)
{
    SyscallSlot &slot = area_.slot(item_slot);
    const mem::Addr addr = area_.slotAddr(item_slot);
    for (;;) {
        co_await gpu_.accessLine(addr,
                                 slotOpCost(gpu_.config().atomicCmpSwap));
        if (sanOn())
            sanActor(ctx);
        if (slot.claim())
            co_return;
        // Slot still owned by an earlier (non-blocking) call; retry.
        co_await ctx.compute(params_.pollIntervalCycles);
    }
}

void
GpuSyscalls::publish(gpu::WavefrontCtx &ctx, Invocation inv, int sysno,
                     const osk::SyscallArgs &args, std::uint32_t item_slot)
{
    if (sanOn())
        sanActor(ctx);
    area_.slot(item_slot).publish(sysno, args,
                                  inv.blocking == Blocking::Blocking,
                                  inv.waitMode, ctx.hwWaveSlot());
    ++issued_;
    area_.noteIssued(area_.shardOfWave(ctx.hwWaveSlot()));
}

sim::Task<>
GpuSyscalls::submit(gpu::WavefrontCtx &ctx, std::uint32_t first_slot,
                    std::uint64_t lane_mask)
{
    if (params_.useRings)
        return ringSubmit(ctx, first_slot, lane_mask);
    // One scalar s_sendmsg for the whole wavefront.
    gpu_.sendInterrupt(ctx.hwWaveSlot());
    return {};
}

sim::Task<>
GpuSyscalls::ringSubmit(gpu::WavefrontCtx &ctx, std::uint32_t first_slot,
                        std::uint64_t lane_mask)
{
    const std::uint32_t shard = area_.shardOfWave(ctx.hwWaveSlot());
    SyscallRing &sq = area_.sq(shard);
    const mem::Addr addr = area_.sqAddr(shard);

    std::uint64_t left = lane_mask;
    while (left != 0) {
        const std::uint32_t chunk = std::min(
            static_cast<std::uint32_t>(std::popcount(left)),
            sq.capacity());

        const bool skip_doorbell =
            mutant::on(Mutant::RingDropDoorbell) && !sq.empty();

        // Claim: a timed read of the SQ counter line, then a CAS-style
        // reservation against the observed head. On failure re-read
        // the line so consumer progress becomes visible.
        co_await gpu_.accessLine(addr, gpu_.config().atomicCmpSwap);
        std::uint64_t head = sq.loadHeadAcquire();
        std::uint64_t base = 0;
        for (;;) {
            if (auto b = sq.tryClaim(chunk, head)) {
                base = *b;
                break;
            }
            ++ringFullRetries_;
            co_await ctx.compute(params_.pollIntervalCycles);
            if (!mutant::on(Mutant::RingStaleHead)) {
                co_await gpu_.accessLine(addr,
                                         gpu_.config().atomicCmpSwap);
                head = sq.loadHeadAcquire();
            }
        }

        // Entry stores are plain writes into the claimed-exclusive
        // window — the tail release below (ordered ahead of the
        // doorbell) is what makes them visible, so they pipeline at
        // populate cost instead of paying per-entry fabric atomics.
        for (std::uint32_t i = 0; i < chunk; ++i) {
            co_await gpu_.accessLine(addr, params_.perLanePopulate);
            sq.writeEntry(base + i,
                          first_slot + std::countr_zero(left));
            left &= left - 1;
        }

        // Publish in claim order; a later claimant waits for earlier
        // ones so tail covers a contiguous prefix.
        for (;;) {
            if (sanOn())
                sanActor(ctx);
            if (sq.tryPublish(base, chunk))
                break;
            co_await ctx.compute(params_.pollIntervalCycles);
        }
        area_.noteRingBatch(shard, chunk);

        if (!skip_doorbell) {
            // ONE doorbell per batch (vs. one per slot pre-ring).
            if (sanOn()) {
                sanActor(ctx);
                gsan_->ringDoorbell(area_.sqRingKey(shard));
            }
            gpu_.sendInterrupt(ctx.hwWaveSlot());
        }
    }
}

sim::Task<>
GpuSyscalls::waitSlots(
    gpu::WavefrontCtx &ctx, Invocation inv,
    std::uint32_t first_slot, std::uint64_t lane_mask,
    std::function<void(std::uint32_t, std::int64_t)> on_result)
{
    std::uint64_t outstanding = lane_mask;
    auto sweep_finished = [&](bool timed) -> sim::Task<> {
        for (std::uint32_t lane = 0; lane < 64 && outstanding != 0;
             ++lane) {
            if ((outstanding & (1ull << lane)) == 0)
                continue;
            SyscallSlot &slot = area_.slot(first_slot + lane);
            if (timed) {
                co_await gpu_.accessLine(
                    area_.slotAddr(first_slot + lane),
                    gpu_.config().atomicLoad);
            }
            // gmc footprint: the wait sweep reads the slot's state
            // word, so it conflicts with any CPU-side transition.
            gmc::Probe::instance().touch(gmc::ProbeKind::Slot,
                                         first_slot + lane);
            if (slot.finished()) {
                if (sanOn())
                    sanActor(ctx);
                if (mutant::on(Mutant::RacyConsume))
                    (void)slot.racyPeekResult();
                const std::int64_t ret = slot.consume();
                outstanding &= ~(1ull << lane);
                if (on_result)
                    on_result(lane, ret);
            }
        }
    };

    if (inv.waitMode == WaitMode::Polling && params_.useRings) {
        // Ring mode (DESIGN.md §13): instead of one atomic load per
        // outstanding lane per round, poll the shard CQ's published
        // tail — one counter-line load per round — and only re-sweep
        // the lanes' slot states when the counter advanced. The slot
        // sweeps themselves are untimed; the CQ line is the only
        // polled traffic. Correctness leans on the host posting the
        // completion event AFTER the slot's Finished release: a tail
        // advance therefore guarantees the finished slot is visible.
        const std::uint32_t shard = area_.shardOfWave(ctx.hwWaveSlot());
        SyscallRing &cq = area_.cq(shard);
        const mem::Addr caddr = area_.cqAddr(shard);
        co_await gpu_.accessLine(caddr, gpu_.config().atomicLoad);
        cq.probeTouch();
        std::uint64_t seen = cq.loadTailAcquire();
        if (sanOn()) {
            sanActor(ctx);
            gsan_->ringObserve(area_.cqRingKey(shard));
        }
        // Unconditional first sweep: completions that landed before
        // this wait began never bump the counter again.
        co_await sweep_finished(false);
        while (outstanding != 0) {
            co_await ctx.compute(params_.pollIntervalCycles);
            co_await gpu_.accessLine(caddr, gpu_.config().atomicLoad);
            cq.probeTouch();
            const std::uint64_t tail = cq.loadTailAcquire();
            if (tail == seen)
                continue;
            seen = tail;
            if (sanOn()) {
                sanActor(ctx);
                gsan_->ringObserve(area_.cqRingKey(shard));
            }
            co_await sweep_finished(false);
        }
    } else if (inv.waitMode == WaitMode::Polling) {
        while (outstanding != 0) {
            co_await sweep_finished(true);
            if (outstanding != 0)
                co_await ctx.compute(params_.pollIntervalCycles);
        }
    } else {
        for (;;) {
            // State checks are untimed here: the wave is about to
            // relinquish its SIMD slot rather than generate traffic.
            // The sweep and the halt() below run back-to-back on the
            // simulated clock, which is what makes check-then-sleep
            // safe; gsan's lost-wakeup detector guards exactly this
            // invariant.
            co_await sweep_finished(false);
            if (outstanding == 0)
                break;
            if (mutant::on(Mutant::HaltGap))
                co_await ctx.compute(mutant::kHaltGapCycles);
            co_await ctx.halt();
        }
    }
}

sim::Task<std::int64_t>
GpuSyscalls::issueOnce(gpu::WavefrontCtx &ctx, Invocation inv,
                       int sysno, const osk::SyscallArgs &args)
{
    const std::uint32_t item_slot =
        area_.firstItemSlotOfWave(ctx.hwWaveSlot());

    co_await claimSlot(ctx, item_slot);
    co_await sim::Delay(ctx.sim().events(), params_.perLanePopulate);
    // Seeded slot-mode bug: the doorbell rings before the publish it
    // announces, and not again after it.
    const bool early_doorbell =
        !params_.useRings && mutant::on(Mutant::DoorbellBeforePublish);
    if (early_doorbell)
        gpu_.sendInterrupt(ctx.hwWaveSlot());
    co_await gpu_.accessLine(area_.slotAddr(item_slot),
                             slotOpCost(gpu_.config().atomicSwap));
    publish(ctx, inv, sysno, args, item_slot);
    GENESYS_TRACE(ctx.sim(), "genesys",
                  "wave %u publishes sysno %d (%s, %s, %s)",
                  ctx.hwWaveSlot(), sysno, orderingName(inv.ordering),
                  blockingName(inv.blocking),
                  waitModeName(inv.waitMode));
    if (!early_doorbell)
        co_await submit(ctx, item_slot, 1);

    if (mutant::on(Mutant::RacyPeekBeforeFinished) &&
        inv.blocking == Blocking::Blocking) {
        if (sanOn())
            sanActor(ctx);
        (void)area_.slot(item_slot).racyPeekResult();
    }

    if (inv.blocking == Blocking::NonBlocking)
        co_return 0;

    std::int64_t result = 0;
    co_await waitSlots(ctx, inv, item_slot, 1,
                       [&result](std::uint32_t, std::int64_t r) {
                           result = r;
                       });
    co_return result;
}

GpuSyscalls::Recover
GpuSyscalls::recover(int sysno, osk::SyscallArgs &args, Recovery &rec,
                     std::int64_t &ret)
{
    if (ret == -EINTR && rec.restarts < params_.eintrMaxRestarts) {
        // SA_RESTART semantics: reissue with identical arguments.
        ++rec.restarts;
        ++retries_;
        return Recover::Reissue;
    }
    // MSG_DONTWAIT turns -EAGAIN into the call's normal "drained"
    // return (the edge-triggered consumer's loop terminator), so the
    // libc layer must surface it instead of burning backoff retries.
    const bool dontwait =
        (sysno == osk::sysno::recvmsg || sysno == osk::sysno::sendmsg) &&
        (args.a[3] & osk::MSG_DONTWAIT_) != 0;
    if (ret == -EAGAIN && !dontwait &&
        rec.congested < params_.eagainMaxRetries) {
        ++rec.congested;
        ++retries_;
        return Recover::Backoff;
    }
    if (!osk::transferSyscall(sysno))
        return Recover::Done;
    if (ret < 0) {
        // A partially-completed transfer reports its progress (the
        // readn/writen convention); an error on the first round
        // surfaces as-is.
        if (rec.done > 0)
            ret = static_cast<std::int64_t>(rec.done);
        return Recover::Done;
    }
    const auto got = static_cast<std::uint64_t>(ret);
    rec.done += got;
    rec.restarts = 0;
    rec.congested = 0;
    // args.a[2] is the count still outstanding before this round.
    if (got == 0 || got >= args.a[2]) {
        ret = static_cast<std::int64_t>(rec.done);
        return Recover::Done;
    }
    ++shortTransfers_;
    osk::advanceTransferArgs(sysno, args, got);
    return Recover::Reissue;
}

sim::Task<std::int64_t>
GpuSyscalls::issueAndWait(gpu::WavefrontCtx &ctx, Invocation inv,
                          int sysno, osk::SyscallArgs args)
{
    // Non-blocking requesters never see the result, so there is
    // nothing to recover here; the host restarts those on our behalf.
    if (inv.blocking == Blocking::NonBlocking)
        co_return co_await issueOnce(ctx, inv, sysno, args);

    Recovery rec;
    for (;;) {
        std::int64_t ret = co_await issueOnce(ctx, inv, sysno, args);
        const Recover next = recover(sysno, args, rec, ret);
        if (next == Recover::Done)
            co_return ret;
        if (next == Recover::Backoff) {
            // Exponential: each consecutive retry doubles the stall.
            co_await ctx.compute(params_.eagainBackoffCycles
                                 << (rec.congested - 1));
        }
    }
}

sim::Task<std::int64_t>
GpuSyscalls::invokeWorkGroup(gpu::WavefrontCtx &ctx,
                             Invocation inv, int sysno,
                             osk::SyscallArgs args)
{
    GENESYS_ASSERT(inv.granularity == Granularity::WorkGroup,
                   "invokeWorkGroup with %s granularity",
                   granularityName(inv.granularity));
    const bool bar_before =
        inv.ordering == Ordering::Strong || inv.role == Role::Consumer;
    const bool bar_after =
        inv.ordering == Ordering::Strong || inv.role == Role::Producer;

    // Section V barrier-placement contract.
    if (bar_before && !mutant::on(Mutant::SkipPreBarrier))
        co_await ctx.wgBarrier();
    if (sanOn()) {
        gsan_->invocationBegin(gsan_->waveThread(ctx.hwWaveSlot()),
                               bar_before, sysno,
                               orderingName(inv.ordering));
    }

    std::int64_t ret = 0;
    if (ctx.isGroupLeader()) {
        if (inv.role == Role::Consumer) {
            // Manual software coherence: flush GPU L1 so the CPU sees
            // the buffer this call consumes (Section VI).
            co_await sim::Delay(ctx.sim().events(), params_.l1FlushCost);
        }
        ret = co_await issueAndWait(ctx, inv, sysno, args);
    }

    if (sanOn()) {
        gsan_->invocationEnd(gsan_->waveThread(ctx.hwWaveSlot()),
                             bar_after, sysno,
                             orderingName(inv.ordering));
    }
    if (bar_after && !mutant::on(Mutant::SkipPostBarrier))
        co_await ctx.wgBarrier();
    co_return ret;
}

sim::Task<std::int64_t>
GpuSyscalls::invokeKernel(gpu::WavefrontCtx &ctx, Invocation inv,
                          int sysno, osk::SyscallArgs args)
{
    GENESYS_ASSERT(inv.granularity == Granularity::Kernel,
                   "invokeKernel with %s granularity",
                   granularityName(inv.granularity));
    if (inv.ordering == Ordering::Strong) {
        // Strong ordering at kernel scope would require every
        // work-item of the grid to synchronize, but the grid can
        // exceed device residency: deadlock (Section V-A).
        fatal("strong ordering at kernel granularity risks GPU "
              "deadlock; use relaxed ordering");
    }
    if (!(ctx.workgroupId() == 0 && ctx.isGroupLeader()))
        co_return 0;
    if (inv.role == Role::Consumer)
        co_await sim::Delay(ctx.sim().events(), params_.l1FlushCost);
    co_return co_await issueAndWait(ctx, inv, sysno, args);
}

sim::Task<>
GpuSyscalls::invokeWorkItems(
    gpu::WavefrontCtx &ctx, Invocation inv, int sysno,
    std::function<std::optional<osk::SyscallArgs>(std::uint32_t)>
        lane_args,
    std::function<void(std::uint32_t, std::int64_t)> on_result)
{
    GENESYS_ASSERT(inv.granularity == Granularity::WorkItem,
                   "invokeWorkItems with %s granularity",
                   granularityName(inv.granularity));
    if (inv.ordering == Ordering::Relaxed) {
        fatal("work-item invocations imply strong ordering "
              "(Section V-A)");
    }

    const std::uint32_t first_slot =
        area_.firstItemSlotOfWave(ctx.hwWaveSlot());
    std::uint64_t mask = 0;
    std::vector<osk::SyscallArgs> args(ctx.laneCount());
    for (std::uint32_t lane = 0; lane < ctx.laneCount(); ++lane) {
        if (auto a = lane_args(lane)) {
            args[lane] = *a;
            mask |= 1ull << lane;
        }
    }
    if (mask == 0)
        co_return; // fully diverged wave: nothing to do

    if (inv.role == Role::Consumer)
        co_await sim::Delay(ctx.sim().events(), params_.l1FlushCost);

    // Per-lane recovery state: each lane runs its own readn/writen
    // continuation + EINTR/EAGAIN retry budget, but rounds stay
    // wavefront-wide (all still-pending lanes reissue together, one
    // interrupt per round) to keep the SIMD issue model.
    std::vector<Recovery> rec(ctx.laneCount());
    std::uint64_t pending = mask;
    while (pending != 0) {
        // Claim every pending lane's slot. The SIMD unit issues the
        // cmp-swaps as one wavefront instruction: the first lane pays
        // the full fabric latency, the rest pipeline behind it.
        bool first = true;
        for (std::uint32_t lane = 0; lane < ctx.laneCount(); ++lane) {
            if ((pending & (1ull << lane)) == 0)
                continue;
            SyscallSlot &slot = area_.slot(first_slot + lane);
            const mem::Addr addr = area_.slotAddr(first_slot + lane);
            for (;;) {
                co_await gpu_.accessLine(
                    addr, slotOpCost(gpu_.config().atomicCmpSwap, first));
                if (sanOn())
                    sanActor(ctx);
                if (slot.claim())
                    break;
                co_await ctx.compute(params_.pollIntervalCycles);
            }
            first = false;
        }

        // Populate and publish each slot; again pipelined across
        // lanes.
        first = true;
        for (std::uint32_t lane = 0; lane < ctx.laneCount(); ++lane) {
            if ((pending & (1ull << lane)) == 0)
                continue;
            co_await gpu_.accessLine(
                area_.slotAddr(first_slot + lane),
                slotOpCost(gpu_.config().atomicSwap, first));
            publish(ctx, inv, sysno, args[lane], first_slot + lane);
            first = false;
        }

        co_await submit(ctx, first_slot, pending);

        if (inv.blocking == Blocking::NonBlocking)
            co_return; // fire-and-forget: host recovers on our behalf

        std::uint64_t next = 0;
        bool backoff = false;
        co_await waitSlots(
            ctx, inv, first_slot, pending,
            [&](std::uint32_t lane, std::int64_t ret) {
                const Recover step =
                    recover(sysno, args[lane], rec[lane], ret);
                if (step == Recover::Done) {
                    if (on_result)
                        on_result(lane, ret);
                    return;
                }
                backoff |= step == Recover::Backoff;
                next |= 1ull << lane;
            });
        if (backoff) {
            // One flat wavefront-wide stall covers every congested
            // lane (they retry together anyway).
            co_await ctx.compute(params_.eagainBackoffCycles);
        }
        pending = next;
    }
}

sim::Task<>
GpuSyscalls::invokeWorkItemsVectored(
    gpu::WavefrontCtx &ctx, Invocation inv, int sysno,
    std::function<std::optional<LaneVec>(std::uint32_t)> lane_vecs,
    std::function<void(std::uint32_t, std::int64_t)> on_result)
{
    const std::uint32_t per_lane = area_.iovecEntriesPerLane();
    osk::IoVec *win = area_.iovecWindow(ctx.hwWaveSlot());
    const mem::Addr wbase = area_.iovecWindowAddr(ctx.hwWaveSlot());

    // Stage every active lane's list into the wave's window. The
    // window is statically owned by this wave, so the stores are
    // plain writes; the slot publish below is their visibility point.
    std::vector<std::optional<osk::SyscallArgs>> prepared(
        ctx.laneCount());
    std::uint64_t bytes_staged = 0;
    for (std::uint32_t lane = 0; lane < ctx.laneCount(); ++lane) {
        auto v = lane_vecs(lane);
        if (!v)
            continue;
        if (v->cnt < 0 || static_cast<std::uint32_t>(v->cnt) > per_lane) {
            // A count the lane's window cannot hold fails that lane
            // alone, as readv/writev past IOV_MAX do.
            if (on_result && inv.blocking == Blocking::Blocking)
                on_result(lane, -EINVAL);
            continue;
        }
        osk::IoVec *dst = win + std::size_t(lane) * per_lane;
        for (int i = 0; i < v->cnt; ++i)
            dst[i] = v->iov[i];
        bytes_staged +=
            std::uint64_t(v->cnt) * sizeof(osk::IoVec);
        prepared[lane] =
            osk::makeArgs(v->fd, dst, v->cnt, v->flags);
    }
    // One timed store per touched descriptor line (4 IoVecs/line).
    const std::uint64_t lines =
        (bytes_staged + params_.slotBytes - 1) / params_.slotBytes;
    for (std::uint64_t l = 0; l < lines; ++l) {
        co_await gpu_.accessLine(wbase + l * params_.slotBytes,
                                 params_.perLanePopulate);
    }

    co_await invokeWorkItems(
        ctx, inv, sysno,
        [&prepared](std::uint32_t lane) { return prepared[lane]; },
        std::move(on_result));
}

// --------------------------------------------------------- POSIX wrappers

sim::Task<std::int64_t>
GpuSyscalls::invoke(gpu::WavefrontCtx &ctx, Invocation inv, Role role,
                    int sysno, const osk::SyscallArgs &args)
{
    inv.role = role;
    if (inv.granularity == Granularity::Kernel)
        return invokeKernel(ctx, inv, sysno, args);
    return invokeWorkGroup(ctx, inv, sysno, args);
}

sim::Task<std::int64_t>
GpuSyscalls::open(gpu::WavefrontCtx &ctx, Invocation inv, const char *path,
                  int flags)
{
    return invoke(ctx, inv, Role::Producer, osk::sysno::open,
                  osk::makeArgs(path, flags));
}

sim::Task<std::int64_t>
GpuSyscalls::close(gpu::WavefrontCtx &ctx, Invocation inv, int fd)
{
    return invoke(ctx, inv, Role::Consumer, osk::sysno::close,
                  osk::makeArgs(fd));
}

sim::Task<std::int64_t>
GpuSyscalls::read(gpu::WavefrontCtx &ctx, Invocation inv, int fd, void *buf,
                  std::uint64_t len)
{
    return invoke(ctx, inv, Role::Producer, osk::sysno::read,
                  osk::makeArgs(fd, buf, len));
}

sim::Task<std::int64_t>
GpuSyscalls::write(gpu::WavefrontCtx &ctx, Invocation inv, int fd,
                   const void *buf, std::uint64_t len)
{
    return invoke(ctx, inv, Role::Consumer, osk::sysno::write,
                  osk::makeArgs(fd, buf, len));
}

sim::Task<std::int64_t>
GpuSyscalls::pread(gpu::WavefrontCtx &ctx, Invocation inv, int fd, void *buf,
                   std::uint64_t len, std::int64_t offset)
{
    return invoke(ctx, inv, Role::Producer, osk::sysno::pread64,
                  osk::makeArgs(fd, buf, len, offset));
}

sim::Task<std::int64_t>
GpuSyscalls::pwrite(gpu::WavefrontCtx &ctx, Invocation inv, int fd,
                    const void *buf, std::uint64_t len, std::int64_t offset)
{
    return invoke(ctx, inv, Role::Consumer, osk::sysno::pwrite64,
                  osk::makeArgs(fd, buf, len, offset));
}

sim::Task<std::int64_t>
GpuSyscalls::lseek(gpu::WavefrontCtx &ctx, Invocation inv, int fd,
                   std::int64_t offset, int whence)
{
    return invoke(ctx, inv, Role::Producer, osk::sysno::lseek,
                  osk::makeArgs(fd, offset, whence));
}

sim::Task<std::int64_t>
GpuSyscalls::mmap(gpu::WavefrontCtx &ctx, Invocation inv, std::uint64_t length,
                  int fd)
{
    return invoke(ctx, inv, Role::Producer, osk::sysno::mmap,
                  osk::makeArgs(0, length, 3, 0x22, fd, 0));
}

sim::Task<std::int64_t>
GpuSyscalls::munmap(gpu::WavefrontCtx &ctx, Invocation inv, std::uint64_t addr,
                    std::uint64_t length)
{
    return invoke(ctx, inv, Role::Consumer, osk::sysno::munmap,
                  osk::makeArgs(addr, length));
}

sim::Task<std::int64_t>
GpuSyscalls::madvise(gpu::WavefrontCtx &ctx, Invocation inv,
                     std::uint64_t addr, std::uint64_t length, int advice)
{
    return invoke(ctx, inv, Role::Consumer, osk::sysno::madvise,
                  osk::makeArgs(addr, length, advice));
}

sim::Task<std::int64_t>
GpuSyscalls::getrusage(gpu::WavefrontCtx &ctx, Invocation inv,
                       osk::RUsage *usage)
{
    return invoke(ctx, inv, Role::Producer, osk::sysno::getrusage,
                  osk::makeArgs(0, usage));
}

sim::Task<std::int64_t>
GpuSyscalls::rtSigqueueinfo(gpu::WavefrontCtx &ctx, Invocation inv, int pid,
                            int signo, const osk::SigInfo *info)
{
    return invoke(ctx, inv, Role::Consumer, osk::sysno::rt_sigqueueinfo,
                  osk::makeArgs(pid, signo, info));
}

sim::Task<std::int64_t>
GpuSyscalls::sendto(gpu::WavefrontCtx &ctx, Invocation inv, int fd,
                    const void *buf, std::uint64_t len,
                    const osk::SockAddr *dest)
{
    return invoke(ctx, inv, Role::Consumer, osk::sysno::sendto,
                  osk::makeArgs(fd, buf, len, 0, dest, 8));
}

sim::Task<std::int64_t>
GpuSyscalls::recvfrom(gpu::WavefrontCtx &ctx, Invocation inv, int fd,
                      void *buf, std::uint64_t len, osk::SockAddr *src)
{
    return invoke(ctx, inv, Role::Producer, osk::sysno::recvfrom,
                  osk::makeArgs(fd, buf, len, 0, src, 8));
}

sim::Task<std::int64_t>
GpuSyscalls::ioctl(gpu::WavefrontCtx &ctx, Invocation inv, int fd,
                   std::uint64_t request, void *argp)
{
    return invoke(ctx, inv, Role::Producer, osk::sysno::ioctl,
                  osk::makeArgs(fd, request, argp));
}

sim::Task<std::int64_t>
GpuSyscalls::readv(gpu::WavefrontCtx &ctx, Invocation inv, int fd,
                   const osk::IoVec *iov, int cnt)
{
    return invoke(ctx, inv, Role::Producer, osk::sysno::readv,
                  osk::makeArgs(fd, iov, cnt));
}

sim::Task<std::int64_t>
GpuSyscalls::writev(gpu::WavefrontCtx &ctx, Invocation inv, int fd,
                    const osk::IoVec *iov, int cnt)
{
    return invoke(ctx, inv, Role::Consumer, osk::sysno::writev,
                  osk::makeArgs(fd, iov, cnt));
}

sim::Task<std::int64_t>
GpuSyscalls::sendmsg(gpu::WavefrontCtx &ctx, Invocation inv, int fd,
                     const osk::IoVec *iov, int cnt, std::uint64_t flags)
{
    return invoke(ctx, inv, Role::Consumer, osk::sysno::sendmsg,
                  osk::makeArgs(fd, iov, cnt, flags));
}

sim::Task<std::int64_t>
GpuSyscalls::recvmsg(gpu::WavefrontCtx &ctx, Invocation inv, int fd,
                     osk::IoVec *iov, int cnt, std::uint64_t flags)
{
    return invoke(ctx, inv, Role::Producer, osk::sysno::recvmsg,
                  osk::makeArgs(fd, iov, cnt, flags));
}

sim::Task<std::int64_t>
GpuSyscalls::connect(gpu::WavefrontCtx &ctx, Invocation inv, int fd,
                     const osk::SockAddr *addr)
{
    return invoke(ctx, inv, Role::Consumer, osk::sysno::connect,
                  osk::makeArgs(fd, addr, 8));
}

sim::Task<std::int64_t>
GpuSyscalls::listen(gpu::WavefrontCtx &ctx, Invocation inv, int fd,
                    int backlog)
{
    return invoke(ctx, inv, Role::Consumer, osk::sysno::listen,
                  osk::makeArgs(fd, backlog));
}

sim::Task<std::int64_t>
GpuSyscalls::accept(gpu::WavefrontCtx &ctx, Invocation inv, int fd,
                    osk::SockAddr *peer)
{
    return invoke(ctx, inv, Role::Producer, osk::sysno::accept,
                  osk::makeArgs(fd, peer, 8));
}

sim::Task<std::int64_t>
GpuSyscalls::shutdown(gpu::WavefrontCtx &ctx, Invocation inv, int fd, int how)
{
    return invoke(ctx, inv, Role::Consumer, osk::sysno::shutdown,
                  osk::makeArgs(fd, how));
}

sim::Task<std::int64_t>
GpuSyscalls::epollCreate(gpu::WavefrontCtx &ctx, Invocation inv)
{
    return invoke(ctx, inv, Role::Producer, osk::sysno::epoll_create,
                  osk::makeArgs(1));
}

sim::Task<std::int64_t>
GpuSyscalls::epollCtl(gpu::WavefrontCtx &ctx, Invocation inv, int epfd, int op,
                      int fd, const osk::EpollEvent *event)
{
    return invoke(ctx, inv, Role::Consumer, osk::sysno::epoll_ctl,
                  osk::makeArgs(epfd, op, fd, event));
}

sim::Task<std::int64_t>
GpuSyscalls::epollWait(gpu::WavefrontCtx &ctx, Invocation inv, int epfd,
                       osk::EpollEvent *events, int max_events,
                       std::int64_t timeout_ns)
{
    // arg[4]: waiter hint (this wave's hardware slot) for per-shard
    // readiness fanout accounting — the epoll slot payload layout.
    return invoke(ctx, inv, Role::Producer, osk::sysno::epoll_wait,
                  osk::makeArgs(epfd, events, max_events, timeout_ns,
                                ctx.hwWaveSlot()));
}

} // namespace genesys::core
