/**
 * @file
 * gstat's seeded-defect corpus (`gstat --self-test`).
 *
 * Every analysis rule is exercised twice: a seeded defect the analyzer
 * must catch (with a witness path for the interprocedural rules) and a
 * nearby negative the analyzer must stay silent on. The corpus is the
 * regression net for the extractor and passes: a lexer desync, a
 * broken deferral edge, or a lost lock snapshot all surface here as a
 * missing or spurious finding.
 */

#include "analysis/analyzer.hh"

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace genesys::analysis
{

namespace
{

struct Expect
{
    const char *rule;
    int count;
};

struct CorpusCase
{
    const char *name;
    std::vector<SourceFile> files;
    std::vector<Expect> expects;
    int suppressed = 0;
};

// Rules whose findings must carry a witness (an interprocedural call
// chain, or a gflow path trace from acquire/source to exit/sink).
const std::set<std::string> &
witnessRules()
{
    static const std::set<std::string> rules = {
        "nonblocking-handler-parks", "drain-loop-park",
        "park-under-lock", "lock-order-cycle",
        "must-release-fd", "must-release-ring-claim",
        "must-release-slot", "must-release-netseg",
        "must-release-epoll", "gpu-taint-mem", "gpu-taint-alloc",
        "gpu-taint-index", "gpu-taint-window"};
    return rules;
}

std::vector<CorpusCase>
buildCorpus()
{
    std::vector<CorpusCase> cases;

    // ---- may-park: handler classification ---------------------------
    cases.push_back(
        {"handler-classification",
         {{"corpus/handlers.cc", R"src(
namespace osk
{
namespace sysno
{
inline constexpr int read = 0;
inline constexpr int ioctl = 16;
inline constexpr int getpid = 39;
inline constexpr int futex = 98;
inline constexpr int dup = 32;
} // namespace sysno
} // namespace osk

bool
mayBlockIndefinitely(int n)
{
    return n == osk::sysno::read;
}

long
sysRead(WaitQueue &wq)
{
    return wq.wait(); // classified blocking: the park is expected
}

long
sysIoctl(WaitQueue &wq)
{
    return wq.wait(); // seeded defect: direct indefinite park
}

long
parkHelper(WaitQueue &wq)
{
    return wq.wait();
}

long
sysGetpid(WaitQueue &wq)
{
    return parkHelper(wq); // seeded defect: transitive indefinite park
}

long
sysFutex(Semaphore &sem)
{
    sem.acquire(); // bounded park: fine for a non-blocking handler
    return 0;
}

long
sysDup(WorkQueue &q, WaitQueue &wq)
{
    q.enqueue([&wq] { wq.wait(); }); // deferred: runs on a worker
    return 0;
}

void
buildTable()
{
    install(sysno::read, "read", sysRead);
    install(sysno::ioctl, "ioctl", sysIoctl);
    install(sysno::getpid, "getpid", sysGetpid);
    install(sysno::futex, "futex", sysFutex);
    install(sysno::dup, "dup", sysDup);
}
)src"}},
         {{"nonblocking-handler-parks", 2}}});

    // ---- may-park: sign-context sensitivity -------------------------
    // The pread/pwrite -ESPIPE flow: the handler rejects a negative
    // offset up front, and the shared path's parks all sit behind an
    // `off >= 0` early return, so the handler can never reach them.
    cases.push_back(
        {"sign-guard-flow-clean",
         {{"corpus/sign_guard.cc", R"src(
namespace osk
{
namespace sysno
{
inline constexpr int pread64 = 17;
} // namespace sysno
} // namespace osk

bool
mayBlockIndefinitely(int n)
{
    return false;
}

long
doStreamRead(WaitQueue &wq, long pos_override)
{
    if (pos_override >= 0)
        return -29; // -ESPIPE: streams are not seekable
    return wq.wait(); // only reachable with pos_override < 0
}

long
sysPread(WaitQueue &wq, long off)
{
    if (off < 0)
        return -22; // -EINVAL: negative offsets rejected up front
    return doStreamRead(wq, off); // negative: the park is dead here
}

void
buildTable()
{
    install(sysno::pread64, "pread64", sysPread);
}
)src"}},
         {}});

    // Without the caller-side guard the same callee park is live: the
    // handler can forward a negative offset straight into the wait.
    cases.push_back(
        {"sign-guard-flow-unguarded",
         {{"corpus/sign_unguarded.cc", R"src(
namespace osk
{
namespace sysno
{
inline constexpr int pread64 = 17;
} // namespace sysno
} // namespace osk

bool
mayBlockIndefinitely(int n)
{
    return false;
}

long
doStreamRead(WaitQueue &wq, long pos_override)
{
    if (pos_override >= 0)
        return -29;
    return wq.wait();
}

long
sysPread(WaitQueue &wq, long off)
{
    return doStreamRead(wq, off); // seeded defect: off may be < 0
}

void
buildTable()
{
    install(sysno::pread64, "pread64", sysPread);
}
)src"}},
         {{"nonblocking-handler-parks", 1}}});

    // ---- may-park: arity-refined resolution -------------------------
    // Two definitions share a short name; only the arity-matching one
    // is a may-call target. The two-argument stream read parks, the
    // one-argument device read does not.
    cases.push_back(
        {"arity-refined-resolution",
         {{"corpus/arity.cc", R"src(
namespace osk
{
namespace sysno
{
inline constexpr int ioctl = 16;
inline constexpr int dup = 32;
} // namespace sysno
} // namespace osk

bool
mayBlockIndefinitely(int n)
{
    return false;
}

struct Stream
{
    WaitQueue wq_;
    long read(void *buf, unsigned long len) { return wq_.wait(); }
};

struct Device
{
    long read(unsigned long bytes) { return 0; }
};

long
sysIoctl(Device &dev)
{
    return dev.read(16); // negative: one arg cannot be Stream::read
}

long
sysDup(Stream &s, void *buf)
{
    return s.read(buf, 16); // seeded defect: two args reach the park
}

void
buildTable()
{
    install(sysno::ioctl, "ioctl", sysIoctl);
    install(sysno::dup, "dup", sysDup);
}
)src"}},
         {{"nonblocking-handler-parks", 1}}});

    // ---- may-park: ring consumer drain loop -------------------------
    cases.push_back(
        {"drain-loop-parks",
         {{"corpus/drain.cc", R"src(
sim::Task<>
InterruptBackend::ringConsumeTask(unsigned shard)
{
    for (;;) {
        cpus.acquireCore(); // bounded: a core always frees
        auto inlinePark = [&] { wq.wait(); };
        inlinePark(); // seeded defect: inline park wedges the shard
    }
}
)src"}},
         {{"drain-loop-park", 1}}});

    cases.push_back(
        {"drain-loop-clean",
         {{"corpus/drain_ok.cc", R"src(
sim::Task<>
InterruptBackend::ringConsumeTask(unsigned shard)
{
    cpus.acquireCore();
    queue.enqueueOn(shard, [&] { wq.wait(); }); // punted, not inline
}
)src"}},
         {}});

    // ---- may-park: park while holding a lock ------------------------
    cases.push_back(
        {"park-under-lock",
         {{"corpus/park_lock.cc", R"src(
struct Shard
{
    std::mutex mu_;
    WaitQueue wq_;

    void direct()
    {
        std::lock_guard<std::mutex> g(mu_);
        wq_.wait(); // seeded defect: indefinite park under mu_
    }

    void parkHelper() { wq_.wait(); }

    void transitive()
    {
        std::lock_guard<std::mutex> g(mu_);
        parkHelper(); // seeded defect: callee parks under mu_
    }

    void released()
    {
        {
            std::lock_guard<std::mutex> g(mu_);
        }
        wq_.wait(); // negative: the guard died with its block
    }
};
)src"}},
         {{"park-under-lock", 2}}});

    // ---- lock order -------------------------------------------------
    cases.push_back(
        {"lock-order",
         {{"corpus/locks.cc", R"src(
struct Inverted
{
    std::mutex a_;
    std::mutex b_;
    void ab()
    {
        std::lock_guard<std::mutex> g1(a_);
        std::lock_guard<std::mutex> g2(b_);
    }
    void ba()
    {
        std::lock_guard<std::mutex> g1(b_);
        std::lock_guard<std::mutex> g2(a_); // seeded defect: AB/BA
    }
};

struct Triangle
{
    std::mutex a_;
    std::mutex b_;
    std::mutex c_;
    void ab()
    {
        std::lock_guard<std::mutex> g1(a_);
        std::lock_guard<std::mutex> g2(b_);
    }
    void bc()
    {
        std::lock_guard<std::mutex> g1(b_);
        std::lock_guard<std::mutex> g2(c_);
    }
    void ca()
    {
        std::lock_guard<std::mutex> g1(c_);
        std::lock_guard<std::mutex> g2(a_); // seeded defect: 3-cycle
    }
};

struct Recursive
{
    std::mutex m_;
    void again()
    {
        std::lock_guard<std::mutex> g(m_);
        std::lock_guard<std::mutex> h(m_); // seeded defect: self-lock
    }
};

struct ThroughCalls
{
    std::mutex x_;
    std::mutex y_;
    void takeY() { std::lock_guard<std::mutex> g(y_); }
    void lockX() { std::lock_guard<std::mutex> g(x_); }
    void first()
    {
        std::lock_guard<std::mutex> g(x_);
        takeY();
    }
    void second()
    {
        std::lock_guard<std::mutex> g(y_);
        lockX(); // seeded defect: inversion through the call graph
    }
};

struct Consistent
{
    std::mutex a_;
    std::mutex b_;
    void one()
    {
        std::lock_guard<std::mutex> g1(a_);
        std::lock_guard<std::mutex> g2(b_);
    }
    void two()
    {
        std::lock_guard<std::mutex> g1(a_);
        std::lock_guard<std::mutex> g2(b_); // negative: same order
    }
    void atomicPair(std::mutex &m, std::mutex &n)
    {
        std::scoped_lock<std::mutex, std::mutex> g(m, n); // negative
    }
};
)src"}},
         {{"lock-order-cycle", 4}}});

    // ---- ordering discipline ----------------------------------------
    cases.push_back(
        {"ordering-discipline",
         {{"corpus/ordering.cc", R"src(
struct Ring
{
    int entries_[16];
    unsigned long loadHeadAcquire() const;
    unsigned long loadTailAcquire() const;
    void storeHeadRelease(unsigned long v);
    void storeTailRelease(unsigned long v);

    void goodPublish(Gsan *g)
    {
        unsigned long t = loadTailAcquire();
        storeTailRelease(t + 1);
        g->ringPublish(1, 1); // negative: store + annotation paired
    }

    void badPublish()
    {
        storeTailRelease(7); // seeded defect: no acquire load first
    }

    void badAnnotation(Gsan *g)
    {
        g->ringPublish(1, 1); // seeded defect: annotation, no store
    }

    int badPeek()
    {
        return entries_[0]; // seeded defect: unannotated read
    }

    int goodPop(Gsan *g)
    {
        g->ringConsume(1);
        int v = entries_[indexOf(loadHeadAcquire())];
        storeHeadRelease(loadHeadAcquire() + 1); // load inside args
        return v;
    }
};

void
touchRaw(Ring &r)
{
    r.headRaw_ = 1; // seeded defect: raw counter outside core/ring.hh
}
)src"}},
         {{"unannotated-consume", 1},
          {"unpaired-hb-annotation", 1},
          {"unpaired-release", 1},
          {"raw-counter-access", 1}}});

    // ---- suppressions -----------------------------------------------
    cases.push_back(
        {"suppressions",
         {{"corpus/suppress.cc", R"src(
struct Near
{
    void storeTailRelease(unsigned long v);
    // Intentional: exercises the allow() window.
    // gstat: allow(unpaired-release)
    void resetTail() { storeTailRelease(0); }
};

struct Far
{
    void storeTailRelease(unsigned long v);
    // gstat: allow(unpaired-release)
    //
    //
    //
    void resetTail() { storeTailRelease(0); } // allow is out of range
};
)src"}},
         {{"unpaired-release", 1}},
         1});

    // ---- raw string literals must not desync the lexer --------------
    cases.push_back(
        {"raw-string-literals",
         {{"corpus/rawstring.cc", R"src(
const char *kScript = R"(storeTailRelease(99); " stray quote ' )";

struct Q
{
    void storeTailRelease(unsigned long v);
    void bad()
    {
        storeTailRelease(1); // seeded defect: proves lexing stayed
                             // in sync past the raw string
    }
};
)src"}},
         {{"unpaired-release", 1}}});

    // ---- gflow: fd lifecycle ----------------------------------------
    cases.push_back(
        {"flow-fd-lifecycle",
         {{"corpus/flow_fd.cc", R"src(
long
leakOnError(Proc &p, File f, bool bad)
{
    const int fd = p.fds().allocate(f);
    if (bad)
        return -1; // seeded defect: fd leaks on the error path
    p.fds().close(fd);
    return fd;
}

long
closedOnAllPaths(Proc &p, File f, bool bad)
{
    const int fd = p.fds().allocate(f);
    if (bad) {
        p.fds().close(fd);
        return -1; // negative: error path closes first
    }
    p.fds().close(fd);
    return 0;
}

long
transferred(Proc &p, File f)
{
    return p.fds().allocate(f); // negative: ownership moves up
}

void
shutdownFd(Proc &p, int fd)
{
    p.fds().close(fd);
}

long
releasedViaHelper(Proc &p, File f)
{
    const int fd = p.fds().allocate(f);
    shutdownFd(p, fd); // negative: the helper closes it
    return 0;
}
)src"}},
         {{"must-release-fd", 1}}});

    // ---- gflow: ring claim ------------------------------------------
    cases.push_back(
        {"flow-ring-claim",
         {{"corpus/flow_claim.cc", R"src(
struct CompletionRing
{
    std::optional<unsigned long> tryClaim(unsigned long n,
                                          unsigned long head);
    unsigned long loadHeadAcquire() const;
    void writeEntry(unsigned long pos, unsigned v);
    bool tryPublish(unsigned long base, unsigned long n);
};

bool
claimDroppedOnThrow(CompletionRing &cq, unsigned v, bool full)
{
    auto base = cq.tryClaim(1, cq.loadHeadAcquire());
    if (!base)
        return false; // negative edge: the claim never happened
    cq.writeEntry(*base, v);
    if (full)
        throw RingOverflow{}; // seeded defect: claimed, not published
    cq.tryPublish(*base, 1);
    return true;
}

bool
publishedOnAllPaths(CompletionRing &cq, unsigned v)
{
    auto base = cq.tryClaim(1, cq.loadHeadAcquire());
    if (!base)
        return false;
    cq.writeEntry(*base, v);
    cq.tryPublish(*base, 1); // negative: straight-line publish
    return true;
}
)src"}},
         {{"must-release-ring-claim", 1}}});

    // ---- gflow: slot FSM --------------------------------------------
    cases.push_back(
        {"flow-slot-fsm",
         {{"corpus/flow_slot.cc", R"src(
sim::Task<bool>
abandonedSlot(SyscallSlot &slot, bool fail)
{
    if (!slot.beginProcessing())
        co_return false; // negative edge: never acquired
    const long ret = runHandler(slot);
    if (fail)
        co_return false; // seeded defect: slot never completed
    slot.complete(ret);
    co_return true;
}

sim::Task<bool>
completedSlot(SyscallSlot &slot, bool fail)
{
    if (!slot.beginProcessing())
        co_return false;
    const long ret = runHandler(slot);
    if (fail) {
        slot.complete(-4); // negative: error path completes too
        co_return false;
    }
    slot.complete(ret);
    co_return true;
}
)src"}},
         {{"must-release-slot", 1}}});

    // A bool wrapper returning its parameter's beginProcessing()
    // hands the conditional acquire to its caller (ServiceCore::take).
    cases.push_back(
        {"flow-slot-take-wrapper",
         {{"corpus/flow_take.cc", R"src(
bool
Core::take(SyscallSlot &slot, unsigned servicer)
{
    setActor(servicer);
    return slot.beginProcessing();
}

sim::Task<>
Core::serve(SyscallSlot &slot)
{
    const long ret = runHandler(slot);
    slot.complete(ret);
    co_return;
}

sim::Task<int>
Core::takenNotServed(SyscallSlot &slot, bool stop)
{
    if (!take(slot, 0))
        co_return 0; // negative edge: never taken
    if (stop)
        co_return 0; // seeded defect: taken slot never served
    co_await serve(slot);
    co_return 1;
}

sim::Task<>
Core::sweep(Area &area, Core &core, unsigned n)
{
    for (unsigned i = 0; i < n; ++i) {
        SyscallSlot &slot = area.slot(i);
        if (!core.take(slot, 0))
            continue; // negative: not Ready, nothing taken
        co_await core.serve(slot);
    }
}
)src"}},
         {{"must-release-slot", 1}}});

    // ---- gflow: zero-copy segment loans -----------------------------
    // Placed at the recvmsg syscall layer, an audited segment-loan
    // caller, so only the flow rule speaks.
    cases.push_back(
        {"flow-netseg-loan",
         {{"corpus/osk/syscalls.cc", R"src(
sim::Task<long>
loanDropped(TcpSocket *sock, OpenFile *file)
{
    std::vector<NetSeg> segs(16);
    const auto got = co_await sock->readSegments(segs.data(), 16);
    if (got <= 0)
        co_return got; // negative edge: nothing was loaned
    if (got > 8)
        co_return -1; // seeded defect: loaned segments dropped
    for (int i = 0; i < got; ++i) {
        auto &seg = segs[i];
        file->loanedSegs.push_back(std::move(seg.data));
    }
    co_return got;
}

sim::Task<long>
loanDistributed(TcpSocket *sock, OpenFile *file)
{
    std::vector<NetSeg> segs(16);
    const auto got = co_await sock->readSegments(segs.data(), 16);
    if (got <= 0)
        co_return got;
    for (int i = 0; i < got; ++i) {
        auto &seg = segs[i];
        file->loanedSegs.push_back(std::move(seg.data));
    }
    co_return got; // negative: every loan reached an owner
}
)src"}},
         {{"must-release-netseg", 1}}});

    // ---- gflow: epoll interest registration -------------------------
    cases.push_back(
        {"flow-epoll-interest",
         {{"corpus/flow_epoll.cc", R"src(
long
interestLeaked(EpollInstance &ep, OpenFile *target, bool fail)
{
    ep.ctl(EPOLL_CTL_ADD_, target, 7);
    if (fail)
        return -1; // seeded defect: interest never deregistered
    ep.ctl(EPOLL_CTL_DEL_, target, 0);
    return 0;
}

long
interestBalanced(EpollInstance &ep, OpenFile *target, bool fail)
{
    ep.ctl(EPOLL_CTL_ADD_, target, 7);
    if (fail) {
        ep.ctl(EPOLL_CTL_DEL_, target, 0); // negative: balanced
        return -1;
    }
    ep.ctl(EPOLL_CTL_DEL_, target, 0);
    return 0;
}
)src"}},
         {{"must-release-epoll", 1}}});

    // ---- gflow: taint into memory ops -------------------------------
    cases.push_back(
        {"flow-taint-mem",
         {{"corpus/flow_mem.cc", R"src(
long
unboundedCopy(const SyscallArgs &args, char *dst, const char *src)
{
    const unsigned long n = args.a[2];
    std::memcpy(dst, src, n); // seeded defect: GPU-controlled size
    return 0;
}

long
boundedCopy(const SyscallArgs &args, char *dst, const char *src)
{
    const unsigned long n = args.a[2];
    if (n > 4096)
        return -1;
    std::memcpy(dst, src, n); // negative: dominated by the bound
    return 0;
}

long
clampedCopy(const SyscallArgs &args, char *dst, const char *src,
            unsigned long cap)
{
    const unsigned long n = std::min(args.a[2], cap);
    std::memcpy(dst, src, n); // negative: min() launders the size
    return 0;
}
)src"}},
         {{"gpu-taint-mem", 1}}});

    // ---- gflow: taint into allocation sizes -------------------------
    cases.push_back(
        {"flow-taint-alloc",
         {{"corpus/flow_alloc.cc", R"src(
long
unboundedVec(const SyscallArgs &args)
{
    const int cnt = args.as<int>(2);
    if (cnt < 0)
        return -22; // lower bound only: proves nothing about size
    std::vector<NetSeg> segs(static_cast<unsigned long>(cnt));
    return 0; // seeded defect above: GPU-controlled element count
}

long
boundedVec(const SyscallArgs &args)
{
    const int cnt = args.as<int>(2);
    if (cnt < 0 || cnt > 64)
        return -22;
    std::vector<NetSeg> segs(static_cast<unsigned long>(cnt));
    return 0; // negative: both bounds dominate the allocation
}

long
unboundedResize(const SyscallArgs &args, std::vector<char> &buf)
{
    buf.resize(args.a[3]); // seeded defect: direct source into resize
    return 0;
}
)src"}},
         {{"gpu-taint-alloc", 2}}});

    // ---- gflow: taint into container indexing -----------------------
    cases.push_back(
        {"flow-taint-index",
         {{"corpus/flow_index.cc", R"src(
long
rawIndex(const SyscallArgs &args, FdTable &table)
{
    const unsigned idx = args.as<unsigned>(0);
    return table.rows[idx]; // seeded defect: unchecked GPU index
}

long
assertedIndex(const SyscallArgs &args, FdTable &table)
{
    const unsigned idx = args.as<unsigned>(0);
    GENESYS_ASSERT(idx < table.count, "fd index in range");
    return table.rows[idx]; // negative: asserted bound dominates
}

long
poppedIndex(ServiceCore &core, Shard &shard, SyscallSlot *slots)
{
    const unsigned item = core.tryPopRingEntry(shard);
    return slots[item].state; // seeded defect: ring payload indexes
}
)src"}},
         {{"gpu-taint-index", 2}}});

    // ---- gflow: GPU-window walks, incl. through a call --------------
    cases.push_back(
        {"flow-taint-window",
         {{"corpus/flow_window.cc", R"src(
long
walkWindow(const SyscallArgs &args)
{
    const IoVec *iov = args.ptr<IoVec>(1);
    const int cnt = args.as<int>(2);
    if (cnt < 0)
        return -22;
    long total = 0;
    for (int i = 0; i < cnt; ++i)
        total += iov[i].len; // seeded defect: GPU-bounded walk
    return total;
}

long
sumSpans(const IoVec *iov, int iov_cnt)
{
    long cap = 0;
    for (int i = 0; i < iov_cnt; ++i)
        cap += iov[i].len;
    return cap;
}

long
forwardedCount(const SyscallArgs &args)
{
    const IoVec *iov = args.ptr<IoVec>(1);
    const int cnt = args.as<int>(2);
    return sumSpans(iov, cnt); // seeded defect: crosses the call
}

long
clampedForward(const SyscallArgs &args)
{
    const IoVec *iov = args.ptr<IoVec>(1);
    const int cnt = args.as<int>(2);
    if (cnt < 0 || cnt > 1024)
        return -22;
    return sumSpans(iov, cnt); // negative: bounded before the call
}
)src"}},
         {{"gpu-taint-window", 2}}});

    // ---- token rules (tokenrules.cc) --------------------------------
    // One snippet per case, at the path whose allowlist it exercises.
    // The readSegments snippets drop their loan, so gflow's
    // must-release-netseg speaks there too.
    auto lint = [&cases](const char *name, const char *path,
                         const char *text, std::vector<Expect> expects,
                         int suppressed = 0) {
        cases.push_back({name, {{path, text}}, std::move(expects),
                         suppressed});
    };
    lint("token-slot-write-outside-fsm", "src/core/client.cc",
         "void f() { slot.state_ = SlotState::Ready; }", {{"slot-state", 1}});
    lint("token-slot-write-inside-fsm", "src/core/slot.cc",
         "void f() { state_ = to; }", {});
    lint("token-state-compare-ok", "src/core/client.cc",
         "bool f() { return state_ == SlotState::Ready; }", {});
    lint("token-doorbell-outside-issue-path", "src/osk/workqueue.cc",
         "void f() { gpu.sendInterrupt(3); }", {{"doorbell-callers", 1}});
    lint("token-doorbell-from-client", "src/core/client.cc",
         "void f() { gpu_.sendInterrupt(3); }", {});
    lint("token-unordered-iteration", "src/core/x.cc",
         "std::unordered_map<int, int> seen_;\n"
         "void f() { for (auto &kv : seen_) { use(kv); } }",
         {{"unordered-iteration", 1}});
    lint("token-unordered-lookup-ok", "src/core/x.cc",
         "std::unordered_map<int, int> seen_;\n"
         "bool f() { return seen_.contains(3); }",
         {});
    lint("token-vector-iteration-ok", "src/core/x.cc",
         "std::vector<int> v_;\nvoid f() { for (int x : v_) use(x); }",
         {});
    lint("token-chrono", "src/sim/x.cc",
         "auto t = std::chrono::steady_clock::now();", {{"wall-clock", 1}});
    lint("token-time-nullptr", "src/sim/x.cc", "auto t = time(nullptr);",
         {{"wall-clock", 1}});
    lint("token-modeled-accessor-ok", "src/sim/x.cc",
         "auto t = resumeTime(3);", {});
    lint("token-rand", "src/osk/x.cc", "int r = rand();", {{"raw-rand", 1}});
    lint("token-random-device", "src/osk/x.cc", "std::random_device rd;",
         {{"raw-rand", 1}});
    lint("token-seeded-prng-ok", "src/osk/x.cc",
         "support::Xoshiro rng(seed); auto r = rng.next();", {});
    lint("token-owning-lambda-in-co-await", "src/core/x.cc",
         "sim::Task<> f() { co_await g([shared](int x) "
         "{ shared->v = x; }); }",
         {{"coawait-owning-lambda", 1}});
    lint("token-init-capture-in-co-await", "src/core/x.cc",
         "sim::Task<> f() { co_await g([p = std::move(q)](int x) "
         "{ p->v = x; }); }",
         {{"coawait-owning-lambda", 1}});
    lint("token-ref-lambda-in-co-await-ok", "src/core/x.cc",
         "sim::Task<> f() { co_await g([&](int x) { use(x); }); }",
         {});
    lint("token-named-hoist-ok", "src/core/x.cc",
         "sim::Task<> f() { std::function<void(int)> cb = "
         "[shared](int x) { shared->v = x; };\n"
         "co_await g(std::move(cb)); }",
         {});
    lint("token-subscript-not-a-lambda", "src/core/x.cc",
         "sim::Task<> f() { co_await g(table[idx](3)); }", {});
    lint("token-banned-name-in-comment-ok", "src/core/x.cc",
         "// calls sendInterrupt() and rand() at time(nullptr)\n"
         "void f();",
         {});
    lint("token-banned-name-in-string-ok", "src/osk/classification.cc",
         "const char *names[] = {\"gettimeofday\", \"clock_gettime\"};",
         {});
    lint("token-allow-escape", "src/core/x.cc",
         "int r = rand(); // gstat: allow(raw-rand)", {}, 1);
    lint("token-raw-ring-counter-store-outside-ring-hh",
         "src/core/client.cc", "void f(SyscallRing &r) { r.tailRaw_ = 7; }",
         {{"raw-counter-access", 1}});
    lint("token-raw-ring-counter-load-outside-ring-hh",
         "src/core/backend/service_core.cc",
         "bool f(const SyscallRing &r) "
         "{ return r.headRaw_ == r.claimedRaw_; }",
         {{"raw-counter-access", 1}});
    lint("token-raw-counter-inside-the-accessor-header-ok",
         "src/core/ring.hh",
         "std::uint64_t loadHeadAcquire() const { return headRaw_; }",
         {});
    lint("token-accessor-call-sites-ok", "src/core/client.cc",
         "void f(SyscallRing &r) "
         "{ r.storeTailRelease(r.loadHeadAcquire() + 1); }",
         {});
    lint("token-ring-counter-in-comment-ok", "src/core/client.cc",
         "// reads headRaw_ via loadHeadAcquire()\nvoid f();", {});
    lint("token-ring-counter-allow-escape", "src/core/x.cc",
         "auto h = r.headRaw_; // gstat: allow(raw-counter-access)",
         {}, 1);
    lint("token-mutant-scope-in-service-path",
         "src/core/backend/service_core.cc",
         "void f() { const mutant::Scope s({Mutant::RacyConsume}); }",
         {{"mutant-scope", 1}});
    lint("token-mutant-scope-in-gmc-runner-ok", "src/core/gmc.cc",
         "void f(const McConfig &mc) "
         "{ const mutant::Scope planted(mc.mutants); }",
         {});
    lint("token-sysfs-file-outside-the-helper", "src/core/system.cc",
         "void f(osk::Vfs &v) { v.install(\"/sys/genesys/x\", "
         "std::make_shared<osk::SysfsFile>(r, w)); }",
         {{"sysfs-table", 1}});
    lint("token-sysfs-file-in-the-helper-ok", "src/osk/sysfs.cc",
         "void f(Vfs &v) { v.install(p, "
         "std::make_shared<SysfsFile>(r, w, 0, 1)); }",
         {});
    lint("token-mutant-query-ok", "src/core/client.cc",
         "bool f() { return mutant::on(Mutant::RacyConsume); }", {});
    lint("token-readsegments-outside-the-audited-loan-paths",
         "src/core/x.cc",
         "sim::Task<> f(osk::TcpSocket *s, osk::NetSeg *o) "
         "{ co_await s->readSegments(o, 8, false); }",
         {{"segment-loan", 1}, {"must-release-netseg", 1}});
    lint("token-readsegments-in-the-syscall-layer-ok",
         "src/osk/syscalls.cc",
         "sim::Task<> f(osk::TcpSocket *s, osk::NetSeg *o) "
         "{ co_await s->readSegments(o, 8, true); }",
         {{"must-release-netseg", 1}});
    lint("token-readsegments-in-gkv-ok", "src/workloads/gkv.cc",
         "sim::Task<> f(osk::TcpSocket *s, osk::NetSeg *o) "
         "{ co_await s->readSegments(o, 8, false); }",
         {{"must-release-netseg", 1}});
    lint("token-readsegments-in-a-comment-ok", "src/core/x.cc",
         "// drained via readSegments(out, 8, false)\nvoid f();", {});
    lint("token-readsegments-allow-escape", "src/core/x.cc",
         "co_await s->readSegments(o, 8, false); "
         "// gstat: allow(segment-loan)",
         {}, 1);
    lint("token-banned-name-in-raw-string-ok", "src/core/x.cc",
         "const char *s = R\"(calls rand() at time(nullptr))\";\n"
         "void f();",
         {});
    lint("token-raw-string-with-inner-quote-stays-synced", "src/core/x.cc",
         "const char *s = R\"(a \"quoted\" word)\"; int r = rand();",
         {{"raw-rand", 1}});
    lint("token-raw-string-custom-delimiter", "src/core/x.cc",
         "const char *s = R\"x(ends with )\" but not here)x\";\n"
         "int r = rand();",
         {{"raw-rand", 1}});
    lint("token-prefixed-raw-string", "src/core/x.cc",
         "auto s = u8R\"(state_ = \"fake\")\"; "
         "auto t = LR\"(srand(7))\";\nvoid f();",
         {});
    lint("token-identifier-ending-in-r-is-not-a-raw-prefix",
         "src/core/x.cc", "void f() { LOG_ERROR\"tag\"; int r = rand(); }",
         {{"raw-rand", 1}});

    // sysno-classified reads both files of the real census pair and
    // checks the reverse direction against the frozen census.
    auto sysno = [&cases](const char *name, const char *syscalls,
                          const char *census, int count,
                          int suppressed = 0) {
        CorpusCase c{name,
                     {{"src/osk/syscalls.hh", syscalls},
                      {"src/osk/classification.cc", census}},
                     {},
                     suppressed};
        if (count != 0)
            c.expects.push_back({"sysno-classified", count});
        cases.push_back(std::move(c));
    };
    sysno("token-sysno-all-classified",
          "inline constexpr int read = 0;\n"
          "inline constexpr int socket = 41;",
          "Row rows[] = {{\"read\"}, {\"socket\"}};", 0);
    sysno("token-sysno-missing-row",
          "inline constexpr int read = 0;\n"
          "inline constexpr int frobnicate = 99;",
          "Row rows[] = {{\"read\"}};", 1);
    sysno("token-sysno-commented-out-number-ignored",
          "// inline constexpr int ghost = 7;\n"
          "inline constexpr int read = 0;",
          "Row rows[] = {{\"read\"}};", 0);
    sysno("token-sysno-row-anywhere-in-the-table-counts",
          "inline constexpr int epoll_wait = 232;",
          "groups[] = {{\"fork\", \"vfork\", \"epoll_wait\"}};", 0);
    sysno("token-sysno-two-missing-rows-flagged-individually",
          "inline constexpr int a_call = 1;\n"
          "inline constexpr int b_call = 2;",
          "Row rows[] = {{\"fork\"}};", 2);
    sysno("token-sysno-typod-row-flagged-reverse-direction",
          "inline constexpr int read = 0;",
          "Row rows[] = {{\"read\"}, {\"raed\"}};", 1);
    sysno("token-sysno-census-baseline-row-ok",
          "inline constexpr int read = 0;",
          "Row rows[] = {{\"read\"}, {\"fork\"}};", 0);
    sysno("token-sysno-hand-added-census-only-row-allowed-on-its-line",
          "inline constexpr int read = 0;",
          "Row rows[] = {{\"read\"},\n"
          "              {\"io_uring_enter\"}};"
          "  // gstat: allow(sysno-classified)",
          0, 1);
    sysno("token-sysno-both-directions-at-once",
          "inline constexpr int read = 0;\n"
          "inline constexpr int new_call = 5;",
          "Row rows[] = {{\"read\"}, {\"stale_row\"}};", 2);
    sysno("token-sysno-real-baseline-covers-the-current-census",
          "inline constexpr int read = 0;",
          "Row rows[] = {{\"read\"}, {\"fork\"}, {\"execve\"}, "
          "{\"filesystem\"}};",
          0);
    // Rows are string tokens: a quoted name in a comment classifies
    // nothing, and is not itself a row.
    sysno("token-sysno-row-in-comment-does-not-classify",
          "inline constexpr int frobnicate = 99;",
          "// \"frobnicate\" is pending\nRow rows[] = {{\"fork\"}};", 1);

    return cases;
}

bool
runCase(const CorpusCase &c)
{
    const AnalysisResult result = analyzeSources(c.files);
    std::map<std::string, int> got;
    bool ok = true;
    for (const Finding &f : result.findings) {
        ++got[f.rule];
        if (witnessRules().count(f.rule) != 0 && f.witness.empty()) {
            std::printf("FAIL %s: finding without witness: %s\n",
                        c.name, f.render().c_str());
            ok = false;
        }
    }
    std::map<std::string, int> want;
    for (const Expect &e : c.expects)
        want[e.rule] = e.count;
    if (got != want) {
        std::printf("FAIL %s: expected vs got findings differ\n",
                    c.name);
        for (const auto &w : want)
            std::printf("  want %-28s x%d\n", w.first.c_str(),
                        w.second);
        for (const Finding &f : result.findings)
            std::printf("  got  %s\n", f.render().c_str());
        ok = false;
    }
    if (result.suppressed != c.suppressed) {
        std::printf("FAIL %s: expected %d suppressed, got %d\n",
                    c.name, c.suppressed, result.suppressed);
        ok = false;
    }
    if (ok)
        std::printf("PASS %s\n", c.name);
    return ok;
}

} // namespace

int
runSelfTest(bool flowOnly)
{
    int failures = 0;
    int defects = 0;
    std::size_t ran = 0;
    const std::vector<CorpusCase> corpus = buildCorpus();
    for (const CorpusCase &c : corpus) {
        if (flowOnly &&
            std::string(c.name).compare(0, 5, "flow-") != 0)
            continue;
        ++ran;
        if (!runCase(c))
            ++failures;
        for (const Expect &e : c.expects)
            defects += e.count;
    }
    std::printf("gstat self-test: %zu cases, %d seeded defects, "
                "%d failure(s)\n",
                ran, defects, failures);
    return failures == 0 ? 0 : 1;
}

} // namespace genesys::analysis
