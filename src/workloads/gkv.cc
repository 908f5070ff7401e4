/**
 * @file
 * gkv implementation.
 */

#include "gkv.hh"

#include <deque>
#include <map>
#include <memory>

#include "osk/epoll.hh"
#include "osk/file.hh"
#include "osk/tcp.hh"
#include "support/logging.hh"

namespace genesys::workloads
{

namespace
{

/// Value materialization + copy into the reply frame.
constexpr double kCopyCyclesPerByte = 0.25;
/// Fixed per-request bookkeeping (decode, store probe).
constexpr double kRequestCycles = 400.0;
constexpr double kCpuClockHz = 2.7e9;

constexpr int kMaxEvents = 8;
/// Scatter width of one recvmsg/readSegments drain call.
constexpr int kMaxSegs = 8;

struct Request
{
    bool isSet = false;
    std::uint32_t key = 0;
};

struct Shared
{
    const GkvConfig *config = nullptr;
    GkvStore *store = nullptr;
    std::uint64_t gets = 0;
    std::uint64_t sets = 0;
    std::uint64_t accepted = 0;
    std::uint64_t badReplies = 0;
    std::uint64_t connsDone = 0;
    std::uint64_t nextVersion = 0;
    stats::Distribution latencies;

    /**
     * Per-connection server state: the split-frame carry buffer, the
     * recvmsg scatter list (rewritten in place by MSG_ZEROCOPY to
     * point into loaned wire segments), and the batched-reply frames
     * with their writev gather list. Lives host-side so the buffers
     * stay put across the GPU kernel's co_awaits.
     */
    struct Conn
    {
        std::vector<std::uint8_t> partial;
        std::vector<osk::IoVec> rxIov;
        std::vector<std::vector<std::uint8_t>> txFrames;
        std::vector<osk::IoVec> txIov;
    };

    /// Per-server-group state (buffers live host-side, like the
    /// memcached study's GroupBufs).
    struct Group
    {
        int listenFd = -1;
        std::uint32_t expectedConns = 0;
        std::vector<osk::EpollEvent> events;
        osk::EpollEvent ctlEv{};
        osk::SockAddr peer{};
        std::map<int, Conn> conns;
    };
    std::vector<Group> groups;
};

Tick
cpuServeTicks(std::uint32_t value_bytes)
{
    const double cycles =
        kRequestCycles +
        static_cast<double>(value_bytes) * kCopyCyclesPerByte;
    return static_cast<Tick>(cycles / kCpuClockHz * 1e9);
}

std::uint64_t
gpuServeCycles(std::uint32_t value_bytes, std::uint32_t items)
{
    return static_cast<std::uint64_t>(
        (kRequestCycles +
         static_cast<double>(value_bytes) * kCopyCyclesPerByte) /
        items);
}

/**
 * Frame reassembly: feed a byte run into the per-connection parse
 * state machine, invoking @p on_frame with a pointer to each complete
 * frame. Frames fully contained in the run are parsed in place (zero
 * copies); a frame straddling run boundaries accumulates in
 * @p partial and is delivered from there.
 */
template <typename Fn>
void
feedFrames(std::vector<std::uint8_t> &partial,
           std::uint32_t frame_bytes, const std::uint8_t *p,
           std::uint64_t n, Fn &&on_frame)
{
    while (n > 0) {
        if (partial.empty() && n >= frame_bytes) {
            on_frame(p);
            p += frame_bytes;
            n -= frame_bytes;
            continue;
        }
        const std::uint64_t need = frame_bytes - partial.size();
        const std::uint64_t take = n < need ? n : need;
        partial.insert(partial.end(), p, p + take);
        p += take;
        n -= take;
        if (partial.size() == frame_bytes) {
            on_frame(partial.data());
            partial.clear();
        }
    }
}

/**
 * Parse every complete request out of the loaned segments the last
 * recvmsg left in @p cn.rxIov. Only the 16-byte header is decoded —
 * the store never reads a request payload, so frame bodies stay in
 * the loaned segments untouched. Must complete before the next
 * recvmsg on the same fd: that call retires this loan generation.
 */
void
collectRequests(Shared::Conn &cn, std::uint32_t frame_bytes,
                std::vector<GkvFrame> &out)
{
    for (const osk::IoVec &v : cn.rxIov) {
        if (v.len == 0)
            break;
        feedFrames(cn.partial, frame_bytes,
                   static_cast<const std::uint8_t *>(v.asPtr()),
                   v.len, [&](const std::uint8_t *f) {
                       auto req = gkvDecode(f, kGkvHeaderBytes);
                       if (req.has_value())
                           out.push_back(std::move(*req));
                   });
    }
}

/** Serve one decoded request frame against the store. */
GkvFrame
serveRequest(Shared &shared, const GkvFrame &req)
{
    GkvStore &store = *shared.store;
    GkvFrame reply;
    reply.key = req.key;
    if (req.key >= store.numKeys()) {
        reply.op = GkvOp::Miss;
        return reply;
    }
    if (req.op == GkvOp::Set) {
        store.set(req.key, req.version);
        ++shared.sets;
        reply.op = GkvOp::Reply;
        reply.version = req.version;
    } else {
        ++shared.gets;
        reply.op = GkvOp::Reply;
        reply.version = store.version(req.key);
    }
    reply.value = gkvValueFor(reply.key, reply.version,
                              store.valueBytes());
    return reply;
}

/** Stage the served replies as one writev gather list. */
void
batchReplies(Shared &shared, Shared::Conn &cn,
             const std::vector<GkvFrame> &reqs)
{
    cn.txFrames.clear();
    cn.txIov.clear();
    for (const GkvFrame &req : reqs) {
        cn.txFrames.push_back(gkvEncode(serveRequest(shared, req),
                                        shared.store->valueBytes()));
    }
    for (const auto &f : cn.txFrames) {
        cn.txIov.push_back(osk::IoVec{
            osk::SyscallArgs::fromPtr(f.data()), f.size()});
    }
}

/**
 * CPU server loop for one group: the same multiplexed structure the
 * GPU kernel runs — level-triggered listen socket, edge-triggered
 * connections drained to -EAGAIN with zero-copy recvmsg, batched
 * writev replies — expressed with direct kernel syscalls. Exits once
 * every expected connection has reached EOF.
 */
sim::Task<>
cpuGkvServer(core::System &sys, std::shared_ptr<Shared> shared,
             std::uint32_t g)
{
    auto &st = shared->groups[g];
    if (st.expectedConns == 0)
        co_return;
    const std::uint32_t frame_bytes =
        kGkvHeaderBytes + shared->store->valueBytes();

    const std::int64_t epfd = co_await sys.kernel().doSyscall(
        sys.process(), osk::sysno::epoll_create, osk::makeArgs(1));
    GENESYS_ASSERT(epfd >= 0, "gkv epoll_create failed");
    st.ctlEv = osk::EpollEvent{
        osk::EPOLLIN_, static_cast<std::uint64_t>(st.listenFd)};
    std::int64_t rc = co_await sys.kernel().doSyscall(
        sys.process(), osk::sysno::epoll_ctl,
        osk::makeArgs(epfd, osk::EPOLL_CTL_ADD_, st.listenFd,
                      &st.ctlEv));
    GENESYS_ASSERT(rc == 0, "gkv epoll_ctl failed");

    std::vector<GkvFrame> reqs;
    std::uint32_t closed = 0;
    while (closed < st.expectedConns) {
        const std::int64_t n = co_await sys.kernel().doSyscall(
            sys.process(), osk::sysno::epoll_wait,
            osk::makeArgs(epfd, st.events.data(), kMaxEvents,
                          std::int64_t(-1), osk::kEpollHostWaiter));
        GENESYS_ASSERT(n > 0, "gkv epoll_wait failed");
        for (std::int64_t i = 0; i < n; ++i) {
            const int fd = static_cast<int>(st.events[i].data);
            if (fd == st.listenFd) {
                const std::int64_t cfd =
                    co_await sys.kernel().doSyscall(
                        sys.process(), osk::sysno::accept,
                        osk::makeArgs(fd, &st.peer, 8));
                GENESYS_ASSERT(cfd >= 0, "gkv accept failed");
                st.ctlEv = osk::EpollEvent{
                    osk::EPOLLIN_ | osk::EPOLLET_,
                    static_cast<std::uint64_t>(cfd)};
                rc = co_await sys.kernel().doSyscall(
                    sys.process(), osk::sysno::epoll_ctl,
                    osk::makeArgs(epfd, osk::EPOLL_CTL_ADD_,
                                  static_cast<int>(cfd), &st.ctlEv));
                GENESYS_ASSERT(rc == 0, "gkv epoll_ctl add failed");
                st.conns[static_cast<int>(cfd)] = Shared::Conn{};
                ++shared->accepted;
                continue;
            }
            // Edge-triggered: drain the connection to -EAGAIN.
            for (;;) {
                auto &cn = st.conns[fd];
                cn.rxIov.assign(kMaxSegs, osk::IoVec{});
                const std::int64_t rn =
                    co_await sys.kernel().doSyscall(
                        sys.process(), osk::sysno::recvmsg,
                        osk::makeArgs(
                            fd, cn.rxIov.data(), kMaxSegs,
                            std::uint64_t(osk::MSG_ZEROCOPY_ |
                                          osk::MSG_DONTWAIT_)));
                if (rn == -EAGAIN)
                    break;
                if (rn <= 0) {
                    co_await sys.kernel().doSyscall(
                        sys.process(), osk::sysno::epoll_ctl,
                        osk::makeArgs(epfd, osk::EPOLL_CTL_DEL_, fd,
                                      nullptr));
                    co_await sys.kernel().doSyscall(
                        sys.process(), osk::sysno::close,
                        osk::makeArgs(fd));
                    st.conns.erase(fd);
                    ++closed;
                    break;
                }
                reqs.clear();
                collectRequests(cn, frame_bytes, reqs);
                for (std::size_t r = 0; r < reqs.size(); ++r) {
                    co_await sim::Delay(
                        sys.sim().events(),
                        cpuServeTicks(shared->store->valueBytes()));
                }
                batchReplies(*shared, cn, reqs);
                if (cn.txIov.empty())
                    continue;
                const std::int64_t wn =
                    co_await sys.kernel().doSyscall(
                        sys.process(), osk::sysno::writev,
                        osk::makeArgs(
                            fd, cn.txIov.data(),
                            static_cast<int>(cn.txIov.size())));
                GENESYS_ASSERT(
                    wn == static_cast<std::int64_t>(
                              std::uint64_t(reqs.size()) *
                              frame_bytes),
                    "gkv reply writev failed");
            }
        }
    }
    co_await sys.kernel().doSyscall(sys.process(), osk::sysno::close,
                                    osk::makeArgs(epfd));
    co_await sys.kernel().doSyscall(sys.process(), osk::sysno::close,
                                    osk::makeArgs(st.listenFd));
}

/**
 * Load-generator connection: connect, keep up to pipelineDepth
 * scripted requests in flight (each window refill is one batched
 * write — the request train), parse replies zero-copy off the
 * segment chain, then half-close and wait for the server's FIN. Runs
 * on the modeled wire via the raw stream API (the generator stands in
 * for remote machines, like the memcached clients).
 */
sim::Task<>
gkvClient(core::System &sys, std::shared_ptr<Shared> shared,
          std::uint32_t group, std::vector<Request> script)
{
    auto &tcp = sys.kernel().tcp();
    const std::uint32_t value_bytes = shared->store->valueBytes();
    const std::uint32_t frame_bytes = kGkvHeaderBytes + value_bytes;
    const std::uint32_t depth =
        shared->config->pipelineDepth == 0
            ? 1
            : shared->config->pipelineDepth;

    osk::TcpSocket *sock = tcp.createSocket();
    const int sock_id = sock->id();
    const int rc = co_await sock->connect(
        {1, static_cast<std::uint16_t>(kGkvBasePort + group)});
    GENESYS_ASSERT(rc == 0, "gkv connect failed");

    const std::size_t total = script.size();
    std::size_t sent = 0;
    std::size_t completed = 0;
    std::deque<Tick> issued;         // send tick, per in-flight req
    std::deque<std::uint32_t> keys;  // expected reply keys, FIFO
    std::vector<std::uint8_t> batch; // the request train
    const auto fillWindow = [&]() {
        batch.clear();
        while (sent < total && sent - completed < depth) {
            const Request &req = script[sent];
            GkvFrame f;
            f.op = req.isSet ? GkvOp::Set : GkvOp::Get;
            f.key = req.key;
            if (req.isSet) {
                f.version = ++shared->nextVersion;
                f.value = gkvValueFor(f.key, f.version, value_bytes);
            }
            const auto wire = gkvEncode(f, value_bytes);
            batch.insert(batch.end(), wire.begin(), wire.end());
            issued.push_back(sys.sim().now());
            keys.push_back(f.key);
            ++sent;
        }
    };

    std::vector<std::uint8_t> partial;
    osk::NetSeg segs[kMaxSegs];
    fillWindow();
    if (!batch.empty()) {
        const std::int64_t wn =
            co_await sock->write(batch.data(), batch.size());
        GENESYS_ASSERT(wn == static_cast<std::int64_t>(batch.size()),
                       "gkv request write failed");
    }
    while (completed < total) {
        const std::int64_t got =
            co_await sock->readSegments(segs, kMaxSegs, false);
        GENESYS_ASSERT(got > 0, "gkv reply stream truncated");
        std::uint64_t replies = 0;
        for (std::int64_t i = 0; i < got; ++i) {
            feedFrames(
                partial, frame_bytes, segs[i].bytes(), segs[i].len,
                [&](const std::uint8_t *f) {
                    const auto reply = gkvDecode(f, frame_bytes);
                    const std::uint32_t want_key = keys.front();
                    keys.pop_front();
                    shared->latencies.sample(
                        ticks::toUs(sys.sim().now() -
                                    issued.front()));
                    issued.pop_front();
                    if (!reply.has_value() ||
                        reply->key != want_key ||
                        reply->op != GkvOp::Reply ||
                        reply->value !=
                            gkvValueFor(reply->key, reply->version,
                                        value_bytes)) {
                        ++shared->badReplies;
                    }
                    ++replies;
                });
            segs[i] = osk::NetSeg{}; // drop the loan promptly
        }
        completed += replies;
        if (shared->config->thinkNs > 0 && replies > 0) {
            co_await sim::Delay(sys.sim().events(),
                                shared->config->thinkNs * replies);
        }
        fillWindow();
        if (!batch.empty()) {
            const std::int64_t wn =
                co_await sock->write(batch.data(), batch.size());
            GENESYS_ASSERT(
                wn == static_cast<std::int64_t>(batch.size()),
                "gkv request write failed");
        }
    }
    co_await sock->shutdown(osk::SHUT_WR_);
    // Drain the server's FIN so the connection closes cleanly.
    std::uint8_t tail = 0;
    const std::int64_t fin = co_await sock->read(&tail, 1);
    GENESYS_ASSERT(fin == 0, "gkv expected EOF after half-close");
    tcp.closeSocket(sock_id);
    ++shared->connsDone;
}

} // namespace

std::vector<std::uint8_t>
gkvEncode(const GkvFrame &frame, std::uint32_t value_bytes)
{
    std::vector<std::uint8_t> wire(kGkvHeaderBytes + value_bytes, 0);
    const auto op = static_cast<std::uint32_t>(frame.op);
    for (int i = 0; i < 4; ++i) {
        wire[i] = static_cast<std::uint8_t>(op >> (8 * i));
        wire[4 + i] = static_cast<std::uint8_t>(frame.key >> (8 * i));
    }
    for (int i = 0; i < 8; ++i)
        wire[8 + i] =
            static_cast<std::uint8_t>(frame.version >> (8 * i));
    const std::size_t n =
        frame.value.size() < value_bytes ? frame.value.size()
                                         : value_bytes;
    for (std::size_t i = 0; i < n; ++i)
        wire[kGkvHeaderBytes + i] = frame.value[i];
    return wire;
}

std::optional<GkvFrame>
gkvDecode(const std::uint8_t *wire, std::size_t len)
{
    if (wire == nullptr || len < kGkvHeaderBytes)
        return std::nullopt;
    GkvFrame frame;
    std::uint32_t op = 0;
    std::uint32_t key = 0;
    std::uint64_t version = 0;
    for (int i = 0; i < 4; ++i) {
        op |= std::uint32_t(wire[i]) << (8 * i);
        key |= std::uint32_t(wire[4 + i]) << (8 * i);
    }
    for (int i = 0; i < 8; ++i)
        version |= std::uint64_t(wire[8 + i]) << (8 * i);
    if (op < 1 || op > 4)
        return std::nullopt;
    frame.op = static_cast<GkvOp>(op);
    frame.key = key;
    frame.version = version;
    frame.value.assign(wire + kGkvHeaderBytes, wire + len);
    return frame;
}

std::vector<std::uint8_t>
gkvValueFor(std::uint32_t key, std::uint64_t version,
            std::uint32_t value_bytes)
{
    std::vector<std::uint8_t> v(value_bytes);
    std::uint64_t h = 1469598103934665603ull ^ key;
    h = (h ^ version) * 1099511628211ull;
    for (std::uint32_t i = 0; i < value_bytes; ++i) {
        h = (h ^ i) * 1099511628211ull;
        v[i] = static_cast<std::uint8_t>(h >> 32);
    }
    return v;
}

GkvStore::GkvStore(std::uint32_t num_keys, std::uint32_t value_bytes)
    : valueBytes_(value_bytes), versions_(num_keys, 0)
{}

void
GkvStore::set(std::uint32_t key, std::uint64_t version)
{
    versions_[key] = version;
}

GkvResult
runGkv(core::System &sys, const GkvConfig &config)
{
    GkvStore store(config.numKeys, config.valueBytes);
    const std::uint32_t frame_bytes =
        kGkvHeaderBytes + config.valueBytes;
    GENESYS_ASSERT(frame_bytes <= sys.config().kernel.params.tcpMss,
                   "gkv frame must fit one segment");

    auto shared = std::make_shared<Shared>();
    shared->config = &config;
    shared->store = &store;
    shared->groups.resize(config.serverGroups);
    for (std::uint32_t c = 0; c < config.numConnections; ++c)
        ++shared->groups[c % config.serverGroups].expectedConns;
    for (auto &g : shared->groups)
        g.events.resize(kMaxEvents);

    // Request scripts, drawn up front so the mix is independent of
    // connection interleaving.
    Random &rng = sys.sim().random();
    std::vector<std::vector<Request>> scripts(config.numConnections);
    for (std::uint32_t c = 0; c < config.numConnections; ++c) {
        scripts[c].reserve(config.requestsPerConn);
        for (std::uint32_t r = 0; r < config.requestsPerConn; ++r) {
            Request req;
            req.isSet = rng.chance(config.setFraction);
            req.key = static_cast<std::uint32_t>(
                rng.below(config.numKeys));
            scripts[c].push_back(req);
        }
    }

    // Listening sockets, bound before anything runs.
    sys.sim().spawn([](core::System &s,
                       std::shared_ptr<Shared> sh) -> sim::Task<> {
        for (std::uint32_t g = 0; g < sh->groups.size(); ++g) {
            const std::int64_t fd = co_await s.kernel().doSyscall(
                s.process(), osk::sysno::socket,
                osk::makeArgs(2, 1 /* SOCK_STREAM */, 0));
            GENESYS_ASSERT(fd >= 0, "gkv socket failed");
            osk::SockAddr addr{
                1, static_cast<std::uint16_t>(kGkvBasePort + g)};
            std::int64_t rc = co_await s.kernel().doSyscall(
                s.process(), osk::sysno::bind,
                osk::makeArgs(fd, &addr, 8));
            GENESYS_ASSERT(rc == 0, "gkv bind failed");
            rc = co_await s.kernel().doSyscall(
                s.process(), osk::sysno::listen,
                osk::makeArgs(fd, 128));
            GENESYS_ASSERT(rc == 0, "gkv listen failed");
            sh->groups[g].listenFd = static_cast<int>(fd);
        }
    }(sys, shared));
    sys.run();

    const Tick start = sys.sim().now();

    if (!config.useGpu) {
        for (std::uint32_t g = 0; g < config.serverGroups; ++g) {
            sys.sim().spawn(sys.kernel().cpus().run(
                cpuGkvServer(sys, shared, g)));
        }
    } else {
        gpu::KernelLaunch launch;
        // One wavefront per server group: the epoll loop's control
        // flow is data-dependent, and a single-wave group keeps every
        // work-group-granularity invocation trivially uniform.
        const std::uint32_t wg_size = sys.config().gpu.wavefrontSize;
        launch.workItems =
            std::uint64_t(config.serverGroups) * wg_size;
        launch.wgSize = wg_size;
        launch.program = [&sys, shared,
                          wg_size](gpu::WavefrontCtx &ctx)
            -> sim::Task<> {
            auto &st = shared->groups[ctx.workgroupId()];
            if (st.expectedConns == 0)
                co_return;
            const std::uint32_t frame =
                kGkvHeaderBytes + shared->store->valueBytes();
            core::Invocation weak;
            weak.ordering = core::Ordering::Relaxed;

            const std::int64_t epfd =
                co_await sys.gpuSys().epollCreate(ctx, weak);
            st.ctlEv = osk::EpollEvent{
                osk::EPOLLIN_,
                static_cast<std::uint64_t>(st.listenFd)};
            co_await sys.gpuSys().epollCtl(
                ctx, weak, static_cast<int>(epfd),
                osk::EPOLL_CTL_ADD_, st.listenFd, &st.ctlEv);

            std::vector<GkvFrame> reqs;
            std::uint32_t closed = 0;
            while (closed < st.expectedConns) {
                const std::int64_t n =
                    co_await sys.gpuSys().epollWait(
                        ctx, weak, static_cast<int>(epfd),
                        st.events.data(), kMaxEvents, -1);
                for (std::int64_t i = 0; i < n; ++i) {
                    const int fd =
                        static_cast<int>(st.events[i].data);
                    if (fd == st.listenFd) {
                        const std::int64_t cfd =
                            co_await sys.gpuSys().accept(
                                ctx, weak, fd, &st.peer);
                        if (cfd < 0)
                            continue;
                        st.ctlEv = osk::EpollEvent{
                            osk::EPOLLIN_ | osk::EPOLLET_,
                            static_cast<std::uint64_t>(cfd)};
                        co_await sys.gpuSys().epollCtl(
                            ctx, weak, static_cast<int>(epfd),
                            osk::EPOLL_CTL_ADD_,
                            static_cast<int>(cfd), &st.ctlEv);
                        st.conns[static_cast<int>(cfd)] =
                            Shared::Conn{};
                        ++shared->accepted;
                        continue;
                    }
                    // Edge-triggered: drain this connection to
                    // -EAGAIN, parsing requests straight out of the
                    // loaned segments and batching the replies.
                    for (;;) {
                        auto &cn = st.conns[fd];
                        cn.rxIov.assign(kMaxSegs, osk::IoVec{});
                        const std::int64_t rn =
                            co_await sys.gpuSys().recvmsg(
                                ctx, weak, fd, cn.rxIov.data(),
                                kMaxSegs,
                                std::uint64_t(osk::MSG_ZEROCOPY_ |
                                              osk::MSG_DONTWAIT_));
                        if (rn == -EAGAIN)
                            break;
                        if (rn <= 0) {
                            co_await sys.gpuSys().epollCtl(
                                ctx, weak, static_cast<int>(epfd),
                                osk::EPOLL_CTL_DEL_, fd, nullptr);
                            co_await sys.gpuSys().close(ctx, weak,
                                                        fd);
                            st.conns.erase(fd);
                            ++closed;
                            break;
                        }
                        reqs.clear();
                        collectRequests(cn, frame, reqs);
                        for (std::size_t r = 0; r < reqs.size();
                             ++r) {
                            // Value materialization parallelized
                            // across the work-group's lanes.
                            co_await ctx.compute(gpuServeCycles(
                                shared->store->valueBytes(),
                                wg_size));
                        }
                        batchReplies(*shared, cn, reqs);
                        if (cn.txIov.empty())
                            continue;
                        co_await sys.gpuSys().writev(
                            ctx, weak, fd, cn.txIov.data(),
                            static_cast<int>(cn.txIov.size()));
                    }
                }
            }
            co_await sys.gpuSys().close(ctx, weak,
                                        static_cast<int>(epfd));
            co_await sys.gpuSys().close(ctx, weak, st.listenFd);
        };
        sys.launchGpuAndDrain(std::move(launch));
    }

    for (std::uint32_t c = 0; c < config.numConnections; ++c) {
        sys.sim().spawn(gkvClient(sys, shared,
                                  c % config.serverGroups,
                                  scripts[c]));
    }

    const Tick end = sys.run();

    GkvResult result;
    result.elapsed = end - start;
    result.gets = shared->gets;
    result.sets = shared->sets;
    result.accepted = shared->accepted;
    const std::uint64_t total_requests =
        std::uint64_t(config.numConnections) * config.requestsPerConn;
    result.correct =
        shared->badReplies == 0 &&
        shared->connsDone == config.numConnections &&
        shared->gets + shared->sets == total_requests &&
        shared->accepted == config.numConnections;
    result.p50LatencyUs = shared->latencies.percentile(50);
    result.p95LatencyUs = shared->latencies.percentile(95);
    result.p99LatencyUs = shared->latencies.percentile(99);
    result.throughputKops =
        result.elapsed == 0
            ? 0.0
            : static_cast<double>(total_requests) /
                  ticks::toMs(result.elapsed);
    return result;
}

} // namespace genesys::workloads
