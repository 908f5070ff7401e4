/**
 * @file
 * gnet tests: the TCP stream-socket state machine (loss, retransmit,
 * backpressure, reset), epoll-style level-triggered readiness
 * multiplexing, the syscall surface on top of both, GPU epoll_wait
 * halt/resume through both service backends, and the gkv key-value
 * server end to end (GPU and CPU servers).
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <vector>

#include "core/system.hh"
#include "osk/epoll.hh"
#include "osk/net.hh"
#include "osk/process.hh"
#include "osk/syscalls.hh"
#include "osk/tcp.hh"
#include "sim/sim.hh"
#include "support/gsan.hh"
#include "support/logging.hh"
#include "support/mutant.hh"
#include "workloads/gkv.hh"

namespace genesys
{
namespace
{

// ==================================================== raw TCP stack

class TcpStackTest : public ::testing::Test
{
  protected:
    TcpStackTest() : sim_(1), tcp_(sim_.events(), params_) {}

    /** Bound listener on {1, port}. */
    osk::TcpSocket *
    listener(std::uint16_t port, int backlog = 8)
    {
        osk::TcpSocket *s = tcp_.createSocket();
        EXPECT_EQ(s->bind({1, port}), 0);
        EXPECT_EQ(s->listen(backlog), 0);
        return s;
    }

    /** Connected (client, server-conn) pair through {1, port}. */
    std::pair<osk::TcpSocket *, osk::TcpSocket *>
    establish(std::uint16_t port)
    {
        osk::TcpSocket *lst = listener(port);
        osk::TcpSocket *cli = tcp_.createSocket();
        int rc = -1;
        sim_.spawn([](osk::TcpSocket *c, std::uint16_t p,
                      int &out) -> sim::Task<> {
            out = co_await c->connect({1, p});
        }(cli, port, rc));
        sim_.run();
        EXPECT_EQ(rc, 0);
        int sid = -1;
        EXPECT_TRUE(lst->tryAccept(sid));
        return {cli, tcp_.socket(sid)};
    }

    osk::OskParams params_;
    sim::Sim sim_;
    osk::TcpStack tcp_;
};

TEST_F(TcpStackTest, ConnectAcceptEstablishes)
{
    auto [cli, srv] = establish(7000);
    ASSERT_NE(srv, nullptr);
    EXPECT_EQ(cli->state(), osk::TcpState::Established);
    EXPECT_EQ(srv->state(), osk::TcpState::Established);
    EXPECT_GE(cli->local().port, 49152); // ephemeral
    EXPECT_EQ(srv->peer(), cli->local());
    EXPECT_EQ(cli->peer(), (osk::SockAddr{1, 7000}));
    EXPECT_EQ(tcp_.counters().connects, 1u);
    EXPECT_EQ(tcp_.counters().accepts, 1u);
    // Handshake charged at least one RTT's worth of wire time.
    EXPECT_GE(sim_.now(), params_.tcpRtt);
}

TEST_F(TcpStackTest, ConnectWithoutListenerRefused)
{
    osk::TcpSocket *cli = tcp_.createSocket();
    int rc = 0;
    sim_.spawn([](osk::TcpSocket *c, int &out) -> sim::Task<> {
        out = co_await c->connect({1, 4242});
    }(cli, rc));
    sim_.run();
    EXPECT_EQ(rc, -ECONNREFUSED);
    EXPECT_EQ(cli->state(), osk::TcpState::Closed);
    EXPECT_EQ(tcp_.counters().refused, 1u);
}

TEST_F(TcpStackTest, DataRoundTripThenEofViaShutdown)
{
    auto [cli, srv] = establish(7001);
    std::vector<std::uint8_t> tx(300);
    for (std::size_t i = 0; i < tx.size(); ++i)
        tx[i] = static_cast<std::uint8_t>(i * 7);
    std::vector<std::uint8_t> rx(tx.size());
    std::uint64_t got = 0;
    bool eof_seen = false;
    sim_.spawn([](osk::TcpSocket *c,
                  std::vector<std::uint8_t> *data) -> sim::Task<> {
        const auto n = co_await c->write(data->data(), data->size());
        EXPECT_EQ(n, static_cast<std::int64_t>(data->size()));
        co_await c->shutdown(osk::SHUT_WR_);
    }(cli, &tx));
    sim_.spawn([](osk::TcpSocket *s, std::vector<std::uint8_t> *buf,
                  std::uint64_t &rcvd, bool &eof) -> sim::Task<> {
        for (;;) {
            const auto n = co_await s->read(buf->data() + rcvd,
                                            buf->size() - rcvd);
            if (n == 0) {
                eof = true;
                co_return;
            }
            EXPECT_GT(n, 0);
            if (n < 0)
                co_return;
            rcvd += static_cast<std::uint64_t>(n);
        }
    }(srv, &rx, got, eof_seen));
    sim_.run();
    EXPECT_TRUE(eof_seen);
    EXPECT_EQ(got, tx.size());
    EXPECT_EQ(rx, tx);
    EXPECT_EQ(srv->state(), osk::TcpState::CloseWait);
    // Server half-closes too: both FINs exchanged, both ends closed.
    sim_.spawn([](osk::TcpSocket *s) -> sim::Task<> {
        EXPECT_EQ(co_await s->shutdown(osk::SHUT_RDWR_), 0);
    }(srv));
    sim_.run();
    EXPECT_EQ(srv->state(), osk::TcpState::Closed);
    EXPECT_EQ(cli->state(), osk::TcpState::Closed);
}

TEST_F(TcpStackTest, LossyWireRetransmitsAndStillDelivers)
{
    auto [cli, srv] = establish(7002);
    tcp_.setLossPpm(300000); // 30% segment loss
    std::vector<std::uint8_t> tx(8 * 1024);
    for (std::size_t i = 0; i < tx.size(); ++i)
        tx[i] = static_cast<std::uint8_t>(i ^ (i >> 8));
    std::vector<std::uint8_t> rx(tx.size());
    std::uint64_t got = 0;
    sim_.spawn([](osk::TcpSocket *c,
                  std::vector<std::uint8_t> *data) -> sim::Task<> {
        EXPECT_EQ(co_await c->write(data->data(), data->size()),
                  static_cast<std::int64_t>(data->size()));
    }(cli, &tx));
    sim_.spawn([](osk::TcpSocket *s, std::vector<std::uint8_t> *buf,
                  std::uint64_t &rcvd) -> sim::Task<> {
        while (rcvd < buf->size()) {
            const auto n = co_await s->read(buf->data() + rcvd,
                                            buf->size() - rcvd);
            EXPECT_GT(n, 0);
            if (n <= 0)
                co_return;
            rcvd += static_cast<std::uint64_t>(n);
        }
    }(srv, &rx, got));
    sim_.run();
    EXPECT_EQ(got, tx.size());
    EXPECT_EQ(rx, tx); // lossy but reliable
    EXPECT_GT(tcp_.counters().segsLost, 0u);
    EXPECT_GT(tcp_.counters().retransmits, 0u);
    EXPECT_EQ(tcp_.counters().segsLost, tcp_.counters().retransmits);
}

TEST_F(TcpStackTest, AttemptBudgetExhaustionResetsConnection)
{
    auto [cli, srv] = establish(7003);
    tcp_.setLossPpm(1000000); // every transmission lost
    std::uint8_t byte = 0x5a;
    std::int64_t wrc = 0;
    sim_.spawn([](osk::TcpSocket *c, std::uint8_t *b,
                  std::int64_t &out) -> sim::Task<> {
        out = co_await c->write(b, 1);
    }(cli, &byte, wrc));
    sim_.run();
    EXPECT_EQ(wrc, -ECONNRESET);
    EXPECT_GE(tcp_.counters().resets, 1u);
    EXPECT_TRUE(srv->errorPending());
    std::int64_t rrc = 0;
    sim_.spawn([](osk::TcpSocket *s, std::int64_t &out) -> sim::Task<> {
        std::uint8_t b;
        out = co_await s->read(&b, 1);
    }(srv, rrc));
    sim_.run();
    EXPECT_EQ(rrc, -ECONNRESET);

    // A fresh connect through the dead wire times out entirely.
    osk::TcpSocket *c2 = tcp_.createSocket();
    int crc = 0;
    sim_.spawn([](osk::TcpSocket *c, int &out) -> sim::Task<> {
        out = co_await c->connect({1, 7003});
    }(c2, crc));
    sim_.run();
    EXPECT_EQ(crc, -ETIMEDOUT);
}

TEST_F(TcpStackTest, BackpressureBlocksWriterUntilReaderDrains)
{
    params_.tcpWindowBytes = 64; // tiny receive window
    auto [cli, srv] = establish(7004);
    std::vector<std::uint8_t> tx(512);
    for (std::size_t i = 0; i < tx.size(); ++i)
        tx[i] = static_cast<std::uint8_t>(i);
    std::vector<std::uint8_t> rx(tx.size());
    std::uint64_t got = 0;
    Tick write_done = 0;
    sim_.spawn([](sim::Sim &sim, osk::TcpSocket *c,
                  std::vector<std::uint8_t> *data,
                  Tick &done) -> sim::Task<> {
        EXPECT_EQ(co_await c->write(data->data(), data->size()),
                  static_cast<std::int64_t>(data->size()));
        done = sim.now();
    }(sim_, cli, &tx, write_done));
    sim_.spawn([](sim::Sim &sim, osk::TcpSocket *s,
                  std::vector<std::uint8_t> *buf,
                  std::uint64_t &rcvd) -> sim::Task<> {
        while (rcvd < buf->size()) {
            // Slow consumer: drain in small sips with think time.
            co_await sim.delay(ticks::us(100));
            const auto n = co_await s->read(buf->data() + rcvd, 32);
            EXPECT_GT(n, 0);
            if (n <= 0)
                co_return;
            rcvd += static_cast<std::uint64_t>(n);
        }
    }(sim_, srv, &rx, got));
    sim_.run();
    EXPECT_EQ(got, tx.size());
    EXPECT_EQ(rx, tx);
    EXPECT_GT(tcp_.counters().backpressureStalls, 0u);
    // The writer finished only after the reader opened the window.
    EXPECT_GE(write_done, ticks::us(100));
}

// ==================================================== raw epoll layer

class EpollTest : public ::testing::Test
{
  protected:
    EpollTest()
        : sim_(1), udp_(sim_.events(), params_),
          tcp_(sim_.events(), params_),
          ep_(sim_.events(), params_, udp_, tcp_)
    {}

    std::pair<osk::TcpSocket *, osk::TcpSocket *>
    establish(std::uint16_t port)
    {
        osk::TcpSocket *lst = tcp_.createSocket();
        EXPECT_EQ(lst->bind({1, port}), 0);
        EXPECT_EQ(lst->listen(8), 0);
        osk::TcpSocket *cli = tcp_.createSocket();
        int rc = -1;
        sim_.spawn([](osk::TcpSocket *c, std::uint16_t p,
                      int &out) -> sim::Task<> {
            out = co_await c->connect({1, p});
        }(cli, port, rc));
        sim_.run();
        EXPECT_EQ(rc, 0);
        int sid = -1;
        EXPECT_TRUE(lst->tryAccept(sid));
        return {cli, tcp_.socket(sid)};
    }

    std::int64_t
    waitOnce(osk::EpollInstance *inst, osk::EpollEvent *ev, int max,
             std::int64_t timeout_ns,
             std::uint64_t waiter = osk::kEpollHostWaiter)
    {
        std::int64_t out = -9999;
        sim_.spawn([](osk::EpollInstance *i, osk::EpollEvent *e, int m,
                      std::int64_t t, std::uint64_t w,
                      std::int64_t &o) -> sim::Task<> {
            o = co_await i->wait(e, m, t, w);
        }(inst, ev, max, timeout_ns, waiter, out));
        sim_.run();
        return out;
    }

    osk::OskParams params_;
    sim::Sim sim_;
    osk::UdpStack udp_;
    osk::TcpStack tcp_;
    osk::EpollSystem ep_;
};

TEST_F(EpollTest, LevelTriggeredReportsUntilDrained)
{
    auto [cli, srv] = establish(7100);
    osk::EpollInstance *inst = ep_.instance(ep_.create());
    ASSERT_EQ(inst->ctl(osk::EPOLL_CTL_ADD_, 5, osk::SockKind::Tcp,
                        srv->id(), osk::EPOLLIN_, 99),
              0);
    sim_.spawn([](osk::TcpSocket *c) -> sim::Task<> {
        co_await c->write("ping", 4);
    }(cli));
    sim_.run();

    osk::EpollEvent ev[4];
    // Level-triggered: the event repeats while data is queued.
    for (int round = 0; round < 3; ++round) {
        ASSERT_EQ(waitOnce(inst, ev, 4, 0), 1) << "round " << round;
        EXPECT_EQ(ev[0].data, 99u);
        EXPECT_TRUE(ev[0].events & osk::EPOLLIN_);
    }
    // Drain; readiness drops and a short wait now times out.
    std::uint8_t buf[8];
    sim_.spawn([](osk::TcpSocket *s, std::uint8_t *b) -> sim::Task<> {
        EXPECT_EQ(co_await s->read(b, 8), 4);
    }(srv, buf));
    sim_.run();
    EXPECT_EQ(waitOnce(inst, ev, 4, 1000), 0);
    EXPECT_GE(ep_.timeouts(), 1u);
}

TEST_F(EpollTest, MultiSocketReadinessCollected)
{
    auto [cli1, srv1] = establish(7101);
    auto [cli2, srv2] = establish(7102);
    osk::EpollInstance *inst = ep_.instance(ep_.create());
    ASSERT_EQ(inst->ctl(osk::EPOLL_CTL_ADD_, 10, osk::SockKind::Tcp,
                        srv1->id(), osk::EPOLLIN_, 1),
              0);
    ASSERT_EQ(inst->ctl(osk::EPOLL_CTL_ADD_, 11, osk::SockKind::Tcp,
                        srv2->id(), osk::EPOLLIN_, 2),
              0);
    sim_.spawn([](osk::TcpSocket *a, osk::TcpSocket *b) -> sim::Task<> {
        co_await a->write("x", 1);
        co_await b->write("y", 1);
    }(cli1, cli2));
    sim_.run();
    osk::EpollEvent ev[4];
    ASSERT_EQ(waitOnce(inst, ev, 4, 0), 2);
    EXPECT_EQ(ev[0].data + ev[1].data, 3u); // both cookies, any order
}

TEST_F(EpollTest, BlockedWaiterWokenByDataArrival)
{
    auto [cli, srv] = establish(7103);
    osk::EpollInstance *inst = ep_.instance(ep_.create());
    ASSERT_EQ(inst->ctl(osk::EPOLL_CTL_ADD_, 5, osk::SockKind::Tcp,
                        srv->id(), osk::EPOLLIN_, 7),
              0);
    std::vector<std::uint64_t> woken;
    ep_.setWakeObserver(
        [&woken](std::uint64_t cookie) { woken.push_back(cookie); });

    osk::EpollEvent ev[2];
    std::int64_t n = -1;
    Tick woke_at = 0;
    sim_.spawn([](osk::EpollInstance *i, osk::EpollEvent *e,
                  sim::Sim &sim, std::int64_t &out,
                  Tick &when) -> sim::Task<> {
        out = co_await i->wait(e, 2, -1, 42);
        when = sim.now();
    }(inst, ev, sim_, n, woke_at));
    sim_.spawn([](sim::Sim &sim, osk::TcpSocket *c) -> sim::Task<> {
        co_await sim.delay(ticks::us(250));
        co_await c->write("late", 4);
    }(sim_, cli));
    sim_.run();
    ASSERT_EQ(n, 1);
    EXPECT_EQ(ev[0].data, 7u);
    EXPECT_GE(woke_at, ticks::us(250));
    EXPECT_GE(ep_.wakeups(), 1u);
    ASSERT_FALSE(woken.empty());
    EXPECT_EQ(woken.front(), 42u);
}

TEST_F(EpollTest, ErrorReportedEvenWithEmptyMask)
{
    auto [cli, srv] = establish(7104);
    osk::EpollInstance *inst = ep_.instance(ep_.create());
    // Mask registers no interest bits at all.
    ASSERT_EQ(inst->ctl(osk::EPOLL_CTL_ADD_, 5, osk::SockKind::Tcp,
                        srv->id(), 0, 13),
              0);
    tcp_.setLossPpm(1000000);
    sim_.spawn([](osk::TcpSocket *c) -> sim::Task<> {
        EXPECT_EQ(co_await c->write("z", 1), -ECONNRESET);
    }(cli));
    sim_.run();
    osk::EpollEvent ev[2];
    ASSERT_EQ(waitOnce(inst, ev, 2, 0), 1);
    EXPECT_TRUE(ev[0].events & osk::EPOLLERR_);
    EXPECT_EQ(ev[0].data, 13u);
}

TEST_F(EpollTest, WriteReadinessFollowsWindow)
{
    params_.tcpWindowBytes = 64;
    auto [cli, srv] = establish(7105);
    osk::EpollInstance *inst = ep_.instance(ep_.create());
    ASSERT_EQ(inst->ctl(osk::EPOLL_CTL_ADD_, 5, osk::SockKind::Tcp,
                        cli->id(), osk::EPOLLOUT_, 21),
              0);
    osk::EpollEvent ev[2];
    ASSERT_EQ(waitOnce(inst, ev, 2, 0), 1);
    EXPECT_TRUE(ev[0].events & osk::EPOLLOUT_);
    // Fill the peer's window: EPOLLOUT drops.
    std::vector<std::uint8_t> blob(64, 0xaa);
    sim_.spawn([](osk::TcpSocket *c,
                  std::vector<std::uint8_t> *b) -> sim::Task<> {
        co_await c->write(b->data(), b->size());
    }(cli, &blob));
    sim_.run();
    EXPECT_EQ(waitOnce(inst, ev, 2, 1000), 0);
    // Drain at the server: EPOLLOUT returns.
    std::uint8_t buf[64];
    sim_.spawn([](osk::TcpSocket *s, std::uint8_t *b) -> sim::Task<> {
        EXPECT_EQ(co_await s->read(b, 64), 64);
    }(srv, buf));
    sim_.run();
    ASSERT_EQ(waitOnce(inst, ev, 2, 0), 1);
    EXPECT_TRUE(ev[0].events & osk::EPOLLOUT_);
}

TEST_F(EpollTest, CtlErrorContract)
{
    auto [cli, srv] = establish(7106);
    (void)cli;
    osk::EpollInstance *inst = ep_.instance(ep_.create());
    ASSERT_EQ(inst->ctl(osk::EPOLL_CTL_ADD_, 5, osk::SockKind::Tcp,
                        srv->id(), osk::EPOLLIN_, 0),
              0);
    EXPECT_EQ(inst->ctl(osk::EPOLL_CTL_ADD_, 5, osk::SockKind::Tcp,
                        srv->id(), osk::EPOLLIN_, 0),
              -EEXIST);
    EXPECT_EQ(inst->ctl(osk::EPOLL_CTL_MOD_, 6, osk::SockKind::Tcp,
                        srv->id(), osk::EPOLLIN_, 0),
              -ENOENT);
    EXPECT_EQ(inst->ctl(osk::EPOLL_CTL_DEL_, 6, osk::SockKind::Tcp,
                        srv->id(), 0, 0),
              -ENOENT);
    EXPECT_EQ(inst->ctl(99, 5, osk::SockKind::Tcp, srv->id(), 0, 0),
              -EINVAL);
    EXPECT_EQ(inst->ctl(osk::EPOLL_CTL_DEL_, 5, osk::SockKind::Tcp,
                        srv->id(), 0, 0),
              0);
}

TEST_F(EpollTest, EdgeTriggeredFiresOncePerTransition)
{
    auto [cli, srv] = establish(7110);
    osk::EpollInstance *inst = ep_.instance(ep_.create());
    ASSERT_EQ(inst->ctl(osk::EPOLL_CTL_ADD_, 5, osk::SockKind::Tcp,
                        srv->id(), osk::EPOLLIN_ | osk::EPOLLET_, 99),
              0);
    sim_.spawn([](osk::TcpSocket *c) -> sim::Task<> {
        co_await c->write("ping", 4);
    }(cli));
    sim_.run();

    osk::EpollEvent ev[4];
    ASSERT_EQ(waitOnce(inst, ev, 4, 0), 1);
    EXPECT_EQ(ev[0].data, 99u);
    EXPECT_TRUE(ev[0].events & osk::EPOLLIN_);
    // Strict ET: the not-ready -> ready transition was consumed; data
    // left queued does not re-report.
    EXPECT_EQ(waitOnce(inst, ev, 4, 1000), 0);
    // More data while the chain is already non-empty is not a
    // transition either — this is exactly why ET consumers must drain
    // to EAGAIN.
    sim_.spawn([](osk::TcpSocket *c) -> sim::Task<> {
        co_await c->write("more", 4);
    }(cli));
    sim_.run();
    EXPECT_EQ(waitOnce(inst, ev, 4, 1000), 0);
    // Drain to empty; the next arrival is a fresh edge.
    std::uint8_t buf[16];
    sim_.spawn([](osk::TcpSocket *s, std::uint8_t *b) -> sim::Task<> {
        EXPECT_EQ(co_await s->read(b, 16), 8);
    }(srv, buf));
    sim_.run();
    sim_.spawn([](osk::TcpSocket *c) -> sim::Task<> {
        co_await c->write("x", 1);
    }(cli));
    sim_.run();
    ASSERT_EQ(waitOnce(inst, ev, 4, 0), 1);
    EXPECT_EQ(ev[0].data, 99u);
}

TEST_F(EpollTest, EdgeRecordedWhileUnwatchedIsReplayed)
{
    auto [cli, srv] = establish(7111);
    osk::EpollInstance *inst = ep_.instance(ep_.create());
    ASSERT_EQ(inst->ctl(osk::EPOLL_CTL_ADD_, 5, osk::SockKind::Tcp,
                        srv->id(), osk::EPOLLIN_ | osk::EPOLLET_, 31),
              0);
    // The edge fires with nobody in epoll_wait; it must be latched as
    // pending and replayed to the next waiter, exactly once.
    sim_.spawn([](osk::TcpSocket *c) -> sim::Task<> {
        co_await c->write("late-edge", 9);
    }(cli));
    sim_.run();
    osk::EpollEvent ev[2];
    ASSERT_EQ(waitOnce(inst, ev, 2, 0), 1);
    EXPECT_EQ(ev[0].data, 31u);
    EXPECT_EQ(waitOnce(inst, ev, 2, 1000), 0);
    EXPECT_GE(ep_.edgesRecorded(), 1u);
    EXPECT_GE(ep_.edgesDelivered(), 1u);
    EXPECT_LE(ep_.edgesDelivered(), ep_.edgesRecorded());
}

TEST_F(EpollTest, OneshotDisarmsUntilRearmed)
{
    auto [cli, srv] = establish(7112);
    sim_.spawn([](osk::TcpSocket *c) -> sim::Task<> {
        co_await c->write("a", 1);
    }(cli));
    sim_.run();
    osk::EpollInstance *inst = ep_.instance(ep_.create());
    const std::uint32_t mask =
        osk::EPOLLIN_ | osk::EPOLLET_ | osk::EPOLLONESHOT_;
    // ADD probes the already-ready level as the initial edge.
    ASSERT_EQ(inst->ctl(osk::EPOLL_CTL_ADD_, 5, osk::SockKind::Tcp,
                        srv->id(), mask, 55),
              0);
    osk::EpollEvent ev[2];
    ASSERT_EQ(waitOnce(inst, ev, 2, 0), 1);
    EXPECT_EQ(ev[0].data, 55u);
    // Disarmed: a genuine fresh edge is latched but not delivered.
    std::uint8_t b;
    sim_.spawn([](osk::TcpSocket *s, std::uint8_t *p) -> sim::Task<> {
        EXPECT_EQ(co_await s->read(p, 1), 1);
    }(srv, &b));
    sim_.run();
    sim_.spawn([](osk::TcpSocket *c) -> sim::Task<> {
        co_await c->write("b", 1);
    }(cli));
    sim_.run();
    EXPECT_EQ(waitOnce(inst, ev, 2, 1000), 0);
    // MOD re-arms and replays the current level as a fresh edge.
    ASSERT_EQ(inst->ctl(osk::EPOLL_CTL_MOD_, 5, osk::SockKind::Tcp,
                        srv->id(), mask, 56),
              0);
    ASSERT_EQ(waitOnce(inst, ev, 2, 0), 1);
    EXPECT_EQ(ev[0].data, 56u);
}

TEST_F(EpollTest, EtWakeSuppressedWithoutFreshEdge)
{
    auto [cli, srv] = establish(7113);
    osk::EpollInstance *inst = ep_.instance(ep_.create());
    ASSERT_EQ(inst->ctl(osk::EPOLL_CTL_ADD_, 5, osk::SockKind::Tcp,
                        srv->id(), osk::EPOLLIN_ | osk::EPOLLET_, 42),
              0);
    sim_.spawn([](osk::TcpSocket *c) -> sim::Task<> {
        co_await c->write("one", 3);
    }(cli));
    sim_.run();
    osk::EpollEvent ev[2];
    ASSERT_EQ(waitOnce(inst, ev, 2, 0), 1); // edge consumed, NOT drained
    const std::uint64_t wakeups_before = ep_.wakeups();
    // New data lands while the level is already high: no transition,
    // and the only interest is ET, so the sleeping waiter is not
    // woken — it rides out its timeout.
    std::int64_t n = -1;
    sim_.spawn([](osk::EpollInstance *i, osk::EpollEvent *e,
                  std::int64_t &out) -> sim::Task<> {
        out = co_await i->wait(e, 2, ticks::ms(1), 42);
    }(inst, ev, n));
    sim_.spawn([](sim::Sim &sim, osk::TcpSocket *c) -> sim::Task<> {
        co_await sim.delay(ticks::us(250));
        co_await c->write("two", 3);
    }(sim_, cli));
    sim_.run();
    EXPECT_EQ(n, 0);
    EXPECT_EQ(ep_.wakeups(), wakeups_before);
}

TEST_F(EpollTest, LostEdgeReportedBySanitizer)
{
    gsan::Sanitizer san;
    san.setEnabled(true);
    ep_.setSanitizer(&san);
    const mutant::Scope planted({Mutant::LostEdge});

    auto [cli, srv] = establish(7114);
    osk::EpollInstance *inst = ep_.instance(ep_.create());
    ASSERT_EQ(inst->ctl(osk::EPOLL_CTL_ADD_, 5, osk::SockKind::Tcp,
                        srv->id(), osk::EPOLLIN_ | osk::EPOLLET_, 77),
              0);
    // First transition: the edge channel observes it, but the seeded
    // mutant drops it before the pending bit is latched — the waiter
    // times out empty-handed. The loss is not yet provable (the next
    // noteEvent could still re-derive it if the probe state had not
    // advanced), so no report yet.
    sim_.spawn([](osk::TcpSocket *c) -> sim::Task<> {
        co_await c->write("lost", 4);
    }(cli));
    sim_.run();
    osk::EpollEvent ev[2];
    EXPECT_EQ(waitOnce(inst, ev, 2, 1000), 0);
    EXPECT_EQ(san.reportCount(), 0u);
    // Drain out of band so the level drops; the next arrival is a
    // second genuine transition, and at its observation gsan sees
    // seen > recorded: the earlier edge was consumed by the probe
    // state without ever being latched, so no future notification can
    // reconstruct it.
    std::uint8_t buf[8];
    sim_.spawn([](osk::TcpSocket *s, std::uint8_t *b) -> sim::Task<> {
        EXPECT_EQ(co_await s->read(b, 8), 4);
    }(srv, buf));
    sim_.run();
    sim_.spawn([](osk::TcpSocket *c) -> sim::Task<> {
        co_await c->write("next", 4);
    }(cli));
    sim_.run();
    EXPECT_EQ(san.countOf(gsan::ReportKind::LostEdge), 1u);
    EXPECT_EQ(san.reportCount(), 1u);
    // The second edge itself was recorded and delivers normally.
    ASSERT_EQ(waitOnce(inst, ev, 2, 0), 1);
    EXPECT_EQ(ev[0].data, 77u);
    ep_.setSanitizer(nullptr);
}

TEST_F(EpollTest, ClosedInstanceUnblocksWaiterWithEbadf)
{
    auto [cli, srv] = establish(7107);
    (void)cli;
    const int id = ep_.create();
    osk::EpollInstance *inst = ep_.instance(id);
    ASSERT_EQ(inst->ctl(osk::EPOLL_CTL_ADD_, 5, osk::SockKind::Tcp,
                        srv->id(), osk::EPOLLIN_, 0),
              0);
    osk::EpollEvent ev[2];
    std::int64_t n = 0;
    sim_.spawn([](osk::EpollInstance *i, osk::EpollEvent *e,
                  std::int64_t &out) -> sim::Task<> {
        out = co_await i->wait(e, 2, -1, osk::kEpollHostWaiter);
    }(inst, ev, n));
    sim_.spawn([](sim::Sim &sim, osk::EpollSystem &ep,
                  int epid) -> sim::Task<> {
        co_await sim.delay(ticks::us(10));
        EXPECT_TRUE(ep.close(epid));
    }(sim_, ep_, id));
    sim_.run();
    EXPECT_EQ(n, -EBADF);
    EXPECT_EQ(ep_.instance(id), nullptr);
}

// ==================================================== syscall surface

class NetSyscallTest : public ::testing::Test
{
  protected:
    NetSyscallTest()
        : kernel_(sim_, osk::KernelConfig{}),
          proc_(&kernel_.createProcess())
    {}

    std::int64_t
    sys(int num, const osk::SyscallArgs &args)
    {
        std::int64_t ret = -999999;
        sim_.spawn([](osk::Kernel &k, osk::Process &p, int n,
                      osk::SyscallArgs a,
                      std::int64_t &out) -> sim::Task<> {
            out = co_await k.doSyscall(p, n, a);
        }(kernel_, *proc_, num, args, ret));
        sim_.run();
        return ret;
    }

    sim::Sim sim_{1};
    osk::Kernel kernel_;
    osk::Process *proc_;
};

TEST_F(NetSyscallTest, StreamSocketLifecycleThroughSyscalls)
{
    const auto lfd =
        sys(osk::sysno::socket, osk::makeArgs(2, 1 /* STREAM */, 0));
    ASSERT_GE(lfd, 0);
    osk::SockAddr addr{1, 8200};
    ASSERT_EQ(sys(osk::sysno::bind, osk::makeArgs(lfd, &addr, 8)), 0);
    ASSERT_EQ(sys(osk::sysno::listen, osk::makeArgs(lfd, 16)), 0);

    const auto cfd = sys(osk::sysno::socket, osk::makeArgs(2, 1, 0));
    ASSERT_GE(cfd, 0);
    ASSERT_EQ(sys(osk::sysno::connect, osk::makeArgs(cfd, &addr, 8)),
              0);
    osk::SockAddr peer{};
    const auto afd =
        sys(osk::sysno::accept, osk::makeArgs(lfd, &peer, 8));
    ASSERT_GE(afd, 0);
    EXPECT_GE(peer.port, 49152); // the client's ephemeral port

    // Stream data through plain read/write on the connection fds.
    EXPECT_EQ(sys(osk::sysno::write, osk::makeArgs(cfd, "genesys", 7)),
              7);
    char buf[16] = {};
    EXPECT_EQ(sys(osk::sysno::read, osk::makeArgs(afd, buf, 16)), 7);
    EXPECT_EQ(std::string(buf), "genesys");

    // Positioned I/O is meaningless on a stream.
    EXPECT_EQ(sys(osk::sysno::pread64,
                  osk::makeArgs(afd, buf, 4, std::int64_t(0))),
              -ESPIPE);

    // Half-close propagates EOF; writes after SHUT_WR fail.
    EXPECT_EQ(sys(osk::sysno::shutdown,
                  osk::makeArgs(cfd, osk::SHUT_WR_)),
              0);
    EXPECT_EQ(sys(osk::sysno::read, osk::makeArgs(afd, buf, 16)), 0);
    EXPECT_EQ(sys(osk::sysno::write, osk::makeArgs(cfd, "x", 1)),
              -EPIPE);

    EXPECT_EQ(sys(osk::sysno::close, osk::makeArgs(afd)), 0);
    EXPECT_EQ(sys(osk::sysno::close, osk::makeArgs(cfd)), 0);
    EXPECT_EQ(sys(osk::sysno::close, osk::makeArgs(lfd)), 0);
}

TEST_F(NetSyscallTest, EpollSyscallSurface)
{
    const auto lfd = sys(osk::sysno::socket, osk::makeArgs(2, 1, 0));
    osk::SockAddr addr{1, 8201};
    ASSERT_EQ(sys(osk::sysno::bind, osk::makeArgs(lfd, &addr, 8)), 0);
    ASSERT_EQ(sys(osk::sysno::listen, osk::makeArgs(lfd, 16)), 0);

    const auto epfd = sys(osk::sysno::epoll_create, osk::makeArgs(1));
    ASSERT_GE(epfd, 0);
    osk::EpollEvent ev{osk::EPOLLIN_, 77};
    ASSERT_EQ(sys(osk::sysno::epoll_ctl,
                  osk::makeArgs(epfd, osk::EPOLL_CTL_ADD_, lfd, &ev)),
              0);

    // Nothing pending: timed wait returns 0.
    osk::EpollEvent out[4];
    EXPECT_EQ(sys(osk::sysno::epoll_wait,
                  osk::makeArgs(epfd, out, 4, std::int64_t(1000),
                                osk::kEpollHostWaiter)),
              0);

    // A pending connection makes the listener readable.
    const auto cfd = sys(osk::sysno::socket, osk::makeArgs(2, 1, 0));
    ASSERT_EQ(sys(osk::sysno::connect, osk::makeArgs(cfd, &addr, 8)),
              0);
    const auto n = sys(osk::sysno::epoll_wait,
                       osk::makeArgs(epfd, out, 4, std::int64_t(-1),
                                     osk::kEpollHostWaiter));
    ASSERT_EQ(n, 1);
    EXPECT_EQ(out[0].data, 77u);
    EXPECT_TRUE(out[0].events & osk::EPOLLIN_);

    // Non-socket targets are not pollable.
    kernel_.vfs().createFile("/plain");
    const auto ffd = sys(osk::sysno::open,
                         osk::makeArgs("/plain", osk::O_RDONLY));
    EXPECT_EQ(sys(osk::sysno::epoll_ctl,
                  osk::makeArgs(epfd, osk::EPOLL_CTL_ADD_, ffd, &ev)),
              -EPERM);

    // Closing the epoll fd tears the instance down.
    EXPECT_EQ(sys(osk::sysno::close, osk::makeArgs(epfd)), 0);
    EXPECT_EQ(sys(osk::sysno::epoll_wait,
                  osk::makeArgs(epfd, out, 4, std::int64_t(0),
                                osk::kEpollHostWaiter)),
              -EBADF);
}

TEST_F(NetSyscallTest, VectoredScatterGatherRoundTrip)
{
    const auto lfd = sys(osk::sysno::socket, osk::makeArgs(2, 1, 0));
    osk::SockAddr addr{1, 8202};
    ASSERT_EQ(sys(osk::sysno::bind, osk::makeArgs(lfd, &addr, 8)), 0);
    ASSERT_EQ(sys(osk::sysno::listen, osk::makeArgs(lfd, 16)), 0);
    const auto cfd = sys(osk::sysno::socket, osk::makeArgs(2, 1, 0));
    ASSERT_EQ(sys(osk::sysno::connect, osk::makeArgs(cfd, &addr, 8)),
              0);
    const auto afd =
        sys(osk::sysno::accept, osk::makeArgs(lfd, nullptr, 0));
    ASSERT_GE(afd, 0);

    // writev gathers two iovecs into the stream as one transfer.
    osk::IoVec wv[2] = {
        {osk::SyscallArgs::fromPtr("scatter-"), 8},
        {osk::SyscallArgs::fromPtr("gather"), 6},
    };
    EXPECT_EQ(sys(osk::sysno::writev, osk::makeArgs(cfd, wv, 2)), 14);
    // readv scatters the bytes back across two buffers.
    char a[9] = {};
    char b[7] = {};
    osk::IoVec rv[2] = {
        {osk::SyscallArgs::fromPtr(a), 8},
        {osk::SyscallArgs::fromPtr(b), 6},
    };
    EXPECT_EQ(sys(osk::sysno::readv, osk::makeArgs(afd, rv, 2)), 14);
    EXPECT_EQ(std::string(a), "scatter-");
    EXPECT_EQ(std::string(b), "gather");
    // The copy-out path is charged to the copied-bytes counter.
    EXPECT_EQ(kernel_.tcp().counters().copiedBytes, 14u);
    EXPECT_EQ(kernel_.tcp().counters().zerocopyBytes, 0u);
}

TEST_F(NetSyscallTest, RecvmsgZeroCopyLoanLifecycle)
{
    const auto lfd = sys(osk::sysno::socket, osk::makeArgs(2, 1, 0));
    osk::SockAddr addr{1, 8203};
    ASSERT_EQ(sys(osk::sysno::bind, osk::makeArgs(lfd, &addr, 8)), 0);
    ASSERT_EQ(sys(osk::sysno::listen, osk::makeArgs(lfd, 16)), 0);
    const auto cfd = sys(osk::sysno::socket, osk::makeArgs(2, 1, 0));
    ASSERT_EQ(sys(osk::sysno::connect, osk::makeArgs(cfd, &addr, 8)),
              0);
    const auto afd =
        sys(osk::sysno::accept, osk::makeArgs(lfd, nullptr, 0));
    ASSERT_GE(afd, 0);
    EXPECT_EQ(sys(osk::sysno::write, osk::makeArgs(cfd, "genesys", 7)),
              7);

    // Zero-copy receive: the iovec entries are rewritten in place to
    // point into the loaned wire segments; nothing is copied.
    osk::IoVec iov[4] = {};
    EXPECT_EQ(sys(osk::sysno::recvmsg,
                  osk::makeArgs(afd, iov, 4,
                                std::uint64_t(osk::MSG_ZEROCOPY_))),
              7);
    ASSERT_EQ(iov[0].len, 7u);
    EXPECT_EQ(std::memcmp(iov[0].asPtr(), "genesys", 7), 0);
    EXPECT_EQ(iov[1].len, 0u);
    EXPECT_EQ(kernel_.tcp().counters().copiedBytes, 0u);
    EXPECT_EQ(kernel_.tcp().counters().zerocopyBytes, 7u);
    osk::OpenFile *file =
        proc_->fds().get(static_cast<int>(afd));
    ASSERT_NE(file, nullptr);
    EXPECT_EQ(file->loanedSegs.size(), 1u);

    // An empty chain probes -EAGAIN with DONTWAIT — and entering
    // recvmsg retires the previous loan generation on this fd.
    EXPECT_EQ(sys(osk::sysno::recvmsg,
                  osk::makeArgs(afd, iov, 4,
                                std::uint64_t(osk::MSG_ZEROCOPY_ |
                                              osk::MSG_DONTWAIT_))),
              -EAGAIN);
    EXPECT_TRUE(file->loanedSegs.empty());
    // The copy path honors DONTWAIT too.
    EXPECT_EQ(sys(osk::sysno::recvmsg,
                  osk::makeArgs(afd, iov, 4,
                                std::uint64_t(osk::MSG_DONTWAIT_))),
              -EAGAIN);
}

// ============================================= GPU halt/resume paths

/** Host-side plumbing for the GPU epoll tests: a connected pair with
 *  the server end as a process fd. */
struct GpuNetRig
{
    std::int64_t listenFd = -1;
    std::int64_t connFd = -1;
    osk::TcpSocket *client = nullptr;
};

GpuNetRig
buildRig(core::System &sys, std::uint16_t port)
{
    GpuNetRig rig;
    rig.client = sys.kernel().tcp().createSocket();
    sys.sim().spawn([](core::System &s, GpuNetRig &r,
                       std::uint16_t lport) -> sim::Task<> {
        r.listenFd = co_await s.kernel().doSyscall(
            s.process(), osk::sysno::socket, osk::makeArgs(2, 1, 0));
        osk::SockAddr addr{1, lport};
        co_await s.kernel().doSyscall(s.process(), osk::sysno::bind,
                                      osk::makeArgs(r.listenFd, &addr,
                                                    8));
        co_await s.kernel().doSyscall(s.process(), osk::sysno::listen,
                                      osk::makeArgs(r.listenFd, 8));
        const int rc = co_await r.client->connect({1, lport});
        GENESYS_ASSERT(rc == 0, "rig connect failed");
        r.connFd = co_await s.kernel().doSyscall(
            s.process(), osk::sysno::accept,
            osk::makeArgs(r.listenFd, nullptr, 0));
    }(sys, rig, port));
    sys.run();
    EXPECT_GE(rig.connFd, 0);
    return rig;
}

/** GPU program: epoll_create/ctl/wait on @p conn_fd, then read. */
void
launchEpollWaiter(core::System &sys, int conn_fd,
                  core::WaitMode wait_mode,
                  std::int64_t *events_seen, std::int64_t *bytes_read,
                  bool stop_daemon_at_end = false)
{
    gpu::KernelLaunch k;
    const std::uint32_t wg = sys.config().gpu.wavefrontSize;
    k.workItems = wg;
    k.wgSize = wg;
    k.program = [&sys, conn_fd, wait_mode, events_seen, bytes_read,
                 stop_daemon_at_end](gpu::WavefrontCtx &ctx)
        -> sim::Task<> {
        core::Invocation inv;
        inv.ordering = core::Ordering::Relaxed;
        inv.waitMode = wait_mode;
        static osk::EpollEvent ctl_ev;
        static osk::EpollEvent evs[4];
        static std::uint8_t buf[128];
        const auto epfd = co_await sys.gpuSys().epollCreate(ctx, inv);
        ctl_ev = osk::EpollEvent{
            osk::EPOLLIN_, static_cast<std::uint64_t>(conn_fd)};
        co_await sys.gpuSys().epollCtl(ctx, inv,
                                       static_cast<int>(epfd),
                                       osk::EPOLL_CTL_ADD_, conn_fd,
                                       &ctl_ev);
        *events_seen = co_await sys.gpuSys().epollWait(
            ctx, inv, static_cast<int>(epfd), evs, 4, -1);
        *bytes_read = co_await sys.gpuSys().read(ctx, inv, conn_fd,
                                                 buf, 16);
        co_await sys.gpuSys().close(ctx, inv,
                                    static_cast<int>(epfd));
        // The daemon's scan timer would keep the sim alive forever.
        if (stop_daemon_at_end)
            sys.host().stopDaemon();
    };
    sys.launchGpuAndDrain(std::move(k));
}

TEST(GpuEpoll, WaitHaltsAndResumesViaInterruptBackend)
{
    core::SystemConfig cfg;
    cfg.gpu.numCus = 1;
    cfg.gpu.kernelLaunchLatency = ticks::us(5);
    core::System sys(cfg);
    GpuNetRig rig = buildRig(sys, 8300);

    std::int64_t events_seen = -1;
    std::int64_t bytes_read = -1;
    launchEpollWaiter(sys, static_cast<int>(rig.connFd),
                      core::WaitMode::HaltResume, &events_seen,
                      &bytes_read);
    // Data lands long after the GPU blocks in epoll_wait.
    sys.sim().spawn([](core::System &s, osk::TcpSocket *c)
                        -> sim::Task<> {
        co_await s.sim().delay(ticks::ms(2));
        co_await c->write("wakeup-payload!!", 16);
    }(sys, rig.client));
    sys.run();

    EXPECT_EQ(events_seen, 1);
    EXPECT_EQ(bytes_read, 16);
    EXPECT_GE(sys.kernel().epoll().waits(), 1u);
    EXPECT_GE(sys.kernel().epoll().wakeups(), 1u);
}

TEST(GpuEpoll, WaitHaltsAndResumesViaPollingDaemon)
{
    core::SystemConfig cfg;
    cfg.gpu.numCus = 1;
    cfg.gpu.kernelLaunchLatency = ticks::us(5);
    core::System sys(cfg);
    GpuNetRig rig = buildRig(sys, 8301);
    // Start the daemon only after the rig's own sys.run(): its scan
    // timer keeps the sim alive, so runs can't quiesce until the GPU
    // program calls stopDaemon().
    sys.host().startPollingDaemon(ticks::us(20));

    std::int64_t events_seen = -1;
    std::int64_t bytes_read = -1;
    launchEpollWaiter(sys, static_cast<int>(rig.connFd),
                      core::WaitMode::Polling, &events_seen,
                      &bytes_read, /*stop_daemon_at_end=*/true);
    sys.sim().spawn([](core::System &s, osk::TcpSocket *c)
                        -> sim::Task<> {
        co_await s.sim().delay(ticks::ms(2));
        co_await c->write("wakeup-payload!!", 16);
    }(sys, rig.client));
    sys.run();

    EXPECT_EQ(events_seen, 1);
    EXPECT_EQ(bytes_read, 16);
    EXPECT_GE(sys.kernel().epoll().wakeups(), 1u);
    EXPECT_GT(sys.host().batches(), 0u); // daemon sweeps serviced it
}

// ============================================ vectored GPU submission

TEST(GpuVectored, WritevThroughDescriptorWindow)
{
    core::SystemConfig cfg;
    cfg.gpu.numCus = 1;
    cfg.gpu.kernelLaunchLatency = ticks::us(5);
    cfg.genesys.useRings = true;
    core::System sys(cfg);
    GpuNetRig rig = buildRig(sys, 8400);

    static const char kPartA[] = "vect";
    static const char kPartB[] = "ored";
    static osk::IoVec iov[2];
    iov[0] = osk::IoVec{osk::SyscallArgs::fromPtr(kPartA), 4};
    iov[1] = osk::IoVec{osk::SyscallArgs::fromPtr(kPartB), 4};
    std::int64_t lane_ret = -1;

    gpu::KernelLaunch k;
    const std::uint32_t wg = sys.config().gpu.wavefrontSize;
    k.workItems = wg;
    k.wgSize = wg;
    const int conn_fd = static_cast<int>(rig.connFd);
    k.program = [&sys, conn_fd,
                 &lane_ret](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        core::Invocation inv; // strong ordering, blocking
        inv.granularity = core::Granularity::WorkItem;
        // Lane 0 stages its gather list in the wave's descriptor
        // window; the single SQ entry carries the list by reference.
        co_await sys.gpuSys().invokeWorkItemsVectored(
            ctx, inv, osk::sysno::writev,
            [conn_fd](std::uint32_t lane)
                -> std::optional<core::GpuSyscalls::LaneVec> {
                if (lane != 0)
                    return std::nullopt;
                return core::GpuSyscalls::LaneVec{conn_fd, iov, 2, 0};
            },
            [&lane_ret](std::uint32_t lane, std::int64_t ret) {
                if (lane == 0)
                    lane_ret = ret;
            });
    };
    sys.launchGpuAndDrain(std::move(k));

    std::uint8_t buf[16] = {};
    std::int64_t got = 0;
    sys.sim().spawn([](osk::TcpSocket *c, std::uint8_t *b,
                       std::int64_t &out) -> sim::Task<> {
        out = co_await c->read(b, 8);
    }(rig.client, buf, got));
    sys.run();
    EXPECT_EQ(lane_ret, 8);
    EXPECT_EQ(got, 8);
    EXPECT_EQ(std::memcmp(buf, "vectored", 8), 0);
}

// ======================================================== gkv server

TEST(Gkv, GpuServerEndToEnd)
{
    core::SystemConfig cfg;
    cfg.gpu.numCus = 2;
    cfg.gpu.kernelLaunchLatency = ticks::us(5);
    core::System sys(cfg);
    workloads::GkvConfig gc;
    gc.useGpu = true;
    gc.numConnections = 4;
    gc.requestsPerConn = 6;
    gc.serverGroups = 2;
    gc.valueBytes = 128;
    gc.thinkNs = 500;
    const auto res = workloads::runGkv(sys, gc);
    EXPECT_TRUE(res.correct);
    EXPECT_EQ(res.gets + res.sets, 24u);
    EXPECT_EQ(res.accepted, 4u);
    EXPECT_GT(res.throughputKops, 0.0);
    EXPECT_GT(res.p50LatencyUs, 0.0);
    EXPECT_GE(res.p99LatencyUs, res.p50LatencyUs);
    // The whole request path rode the syscall slots.
    EXPECT_GT(sys.gpuSys().issuedRequests(), 0u);
    EXPECT_GE(sys.kernel().epoll().waits(), 1u);
}

TEST(Gkv, CpuServerEndToEnd)
{
    core::System sys;
    workloads::GkvConfig gc;
    gc.useGpu = false;
    gc.numConnections = 4;
    gc.requestsPerConn = 6;
    gc.serverGroups = 2;
    gc.valueBytes = 128;
    const auto res = workloads::runGkv(sys, gc);
    EXPECT_TRUE(res.correct);
    EXPECT_EQ(res.gets + res.sets, 24u);
    EXPECT_EQ(res.accepted, 4u);
    EXPECT_GT(res.p50LatencyUs, 0.0);
}

TEST(Gkv, PipelinedZeroCopyHotPath)
{
    core::SystemConfig cfg;
    cfg.gpu.numCus = 2;
    cfg.gpu.kernelLaunchLatency = ticks::us(5);
    core::System sys(cfg);
    workloads::GkvConfig gc;
    gc.useGpu = true;
    gc.numConnections = 4;
    gc.requestsPerConn = 8;
    gc.serverGroups = 2;
    gc.valueBytes = 128;
    gc.pipelineDepth = 4;
    gc.thinkNs = 200;
    const auto res = workloads::runGkv(sys, gc);
    EXPECT_TRUE(res.correct);
    EXPECT_EQ(res.gets + res.sets, 32u);
    // The serving path never copies received bytes: requests parse in
    // the loaned wire segments, replies gather through writev, and
    // the client parses replies off the segment chain.
    EXPECT_EQ(sys.kernel().tcp().counters().copiedBytes, 0u);
    EXPECT_GT(sys.kernel().tcp().counters().zerocopyBytes, 0u);
    // Edge-triggered readiness did the multiplexing.
    EXPECT_GT(sys.kernel().epoll().edgesRecorded(), 0u);
    EXPECT_GT(sys.kernel().epoll().edgesDelivered(), 0u);
}

TEST(Gkv, PipelinedRingModeCorrect)
{
    core::SystemConfig cfg;
    cfg.gpu.numCus = 2;
    cfg.gpu.kernelLaunchLatency = ticks::us(5);
    cfg.genesys.useRings = true;
    core::System sys(cfg);
    workloads::GkvConfig gc;
    gc.useGpu = true;
    gc.numConnections = 4;
    gc.requestsPerConn = 8;
    gc.serverGroups = 2;
    gc.valueBytes = 128;
    gc.pipelineDepth = 4;
    gc.thinkNs = 200;
    const auto res = workloads::runGkv(sys, gc);
    EXPECT_TRUE(res.correct);
    EXPECT_EQ(res.gets + res.sets, 32u);
    EXPECT_EQ(sys.kernel().tcp().counters().copiedBytes, 0u);
    EXPECT_GT(sys.gpuSys().issuedRequests(), 0u);
}

TEST(Gkv, LossyWireStillCorrect)
{
    core::System sys;
    sys.kernel().tcp().setLossPpm(100000); // 10% loss
    workloads::GkvConfig gc;
    gc.useGpu = false;
    gc.numConnections = 2;
    gc.requestsPerConn = 4;
    gc.serverGroups = 1;
    gc.valueBytes = 64;
    const auto res = workloads::runGkv(sys, gc);
    EXPECT_TRUE(res.correct);
    EXPECT_GT(sys.kernel().tcp().counters().retransmits, 0u);
}

// ==================================================== sysfs surface

class NetSysfsTest : public ::testing::Test
{
  protected:
    std::int64_t
    sys(int num, const osk::SyscallArgs &args)
    {
        std::int64_t ret = -999999;
        sys_.sim().spawn([](core::System &s, int n, osk::SyscallArgs a,
                            std::int64_t &out) -> sim::Task<> {
            out = co_await s.kernel().doSyscall(s.process(), n, a);
        }(sys_, num, args, ret));
        sys_.run();
        return ret;
    }

    std::string
    readFile(const std::string &path)
    {
        const auto fd = sys(osk::sysno::open,
                            osk::makeArgs(path.c_str(), osk::O_RDONLY));
        if (fd < 0)
            return "<open failed>";
        char buf[64] = {};
        sys(osk::sysno::read, osk::makeArgs(fd, buf, 63));
        sys(osk::sysno::close, osk::makeArgs(fd));
        return buf;
    }

    core::System sys_;
};

TEST_F(NetSysfsTest, CountersVisibleAfterTraffic)
{
    workloads::GkvConfig gc;
    gc.useGpu = false;
    gc.numConnections = 2;
    gc.requestsPerConn = 4;
    gc.serverGroups = 1;
    gc.valueBytes = 64;
    const auto res = workloads::runGkv(sys_, gc);
    ASSERT_TRUE(res.correct);

    const auto num = [this](const std::string &path) {
        return std::stoull(readFile(path));
    };
    EXPECT_GT(num("/sys/genesys/net/tcp/segs_sent"), 0u);
    EXPECT_EQ(num("/sys/genesys/net/tcp/connects"), 2u);
    EXPECT_EQ(num("/sys/genesys/net/tcp/accepts"), 2u);
    EXPECT_EQ(num("/sys/genesys/net/tcp/resets"), 0u);
    EXPECT_GT(num("/sys/genesys/net/epoll/waits"), 0u);
    EXPECT_GT(num("/sys/genesys/net/epoll/notifies"), 0u);
    EXPECT_EQ(num("/sys/genesys/net/udp/delivered"),
              sys_.kernel().udp().deliveredDatagrams());
    // Stats report mirrors the same counters.
    const std::string report = sys_.statsReport();
    EXPECT_NE(report.find("net.tcp_segs_sent"), std::string::npos);
    EXPECT_NE(report.find("net.epoll_waits"), std::string::npos);
}

TEST_F(NetSysfsTest, LossKnobWritableFromSimulatedCode)
{
    const auto fd =
        sys(osk::sysno::open,
            osk::makeArgs("/sys/genesys/net/tcp/loss_ppm",
                          osk::O_WRONLY));
    ASSERT_GE(fd, 0);
    EXPECT_EQ(sys(osk::sysno::write, osk::makeArgs(fd, "2500", 4)), 4);
    sys(osk::sysno::close, osk::makeArgs(fd));
    EXPECT_EQ(sys_.kernel().tcp().lossPpm(), 2500u);
    EXPECT_EQ(readFile("/sys/genesys/net/tcp/loss_ppm"), "2500\n");
    // Out-of-range rejected: sysfs reports a short (zero-byte) write
    // and the knob keeps its previous value.
    const auto fd2 =
        sys(osk::sysno::open,
            osk::makeArgs("/sys/genesys/net/tcp/loss_ppm",
                          osk::O_WRONLY));
    EXPECT_EQ(sys(osk::sysno::write, osk::makeArgs(fd2, "2000000", 7)),
              0);
    // 2^64 does not fit in 64 bits; it must not wrap around to 0.
    EXPECT_EQ(sys(osk::sysno::write,
                  osk::makeArgs(fd2, "18446744073709551616", 20)),
              0);
    sys(osk::sysno::close, osk::makeArgs(fd2));
    EXPECT_EQ(sys_.kernel().tcp().lossPpm(), 2500u);
}

} // namespace
} // namespace genesys
