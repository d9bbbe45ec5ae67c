// Tests for the simulator fabric: delivery, handshake costs, retransmit
// under loss, connection breaks, crash semantics, send serialization, and
// the allocation-free warm fast path.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bench/alloc_counter.h"
#include "net/network.h"
#include "overlay/ping_manager.h"
#include "sim/simulation.h"
#include "transport/tcp_model.h"

namespace fuse {
namespace {

constexpr int kHosts = 4;

class TransportTest : public ::testing::Test {
 public:
  void SetUp() override {
    TopologyConfig cfg;
    cfg.num_as = 40;
    sim_ = std::make_unique<Simulation>(17);
    net_ = std::make_unique<SimNetwork>(Topology::Generate(cfg, sim_->rng()));
    for (int i = 0; i < kHosts; ++i) {
      hosts_.push_back(net_->AddHost(sim_->rng()));
    }
  }

  void MakeFabric(CostModel cost, TcpParams tcp = TcpParams()) {
    fabric_ = std::make_unique<SimFabric>(*sim_, *net_, cost, tcp);
  }

  WireMessage Msg(HostId to, uint16_t type = msgtype::kTest) {
    WireMessage m;
    m.to = to;
    m.type = type;
    m.category = MsgCategory::kApp;
    m.payload = {1, 2, 3};
    return m;
  }

  std::unique_ptr<Simulation> sim_;
  std::unique_ptr<SimNetwork> net_;
  std::unique_ptr<SimFabric> fabric_;
  std::vector<HostId> hosts_;
};

TEST_F(TransportTest, DeliversMessage) {
  MakeFabric(CostModel::Simulator());
  Transport* ta = fabric_->TransportFor(hosts_[0]);
  Transport* tb = fabric_->TransportFor(hosts_[1]);
  int received = 0;
  tb->RegisterHandler(msgtype::kTest, [&](const WireMessage& m) {
    EXPECT_EQ(m.from, hosts_[0]);
    EXPECT_EQ(m.payload.size(), 3u);
    ++received;
  });
  Status sent_status = Status::Failed("pending");
  ta->Send(Msg(hosts_[1]), [&](const Status& s) { sent_status = s; });
  sim_->RunFor(Duration::Seconds(5));
  EXPECT_EQ(received, 1);
  EXPECT_TRUE(sent_status.ok());
}

TEST_F(TransportTest, DeliveryTakesOneWayLatency) {
  MakeFabric(CostModel::Simulator());
  Transport* ta = fabric_->TransportFor(hosts_[0]);
  Transport* tb = fabric_->TransportFor(hosts_[1]);
  TimePoint arrival;
  tb->RegisterHandler(msgtype::kTest, [&](const WireMessage&) { arrival = tb->env().Now(); });
  const Duration one_way = net_->GetPath(hosts_[0], hosts_[1]).latency;
  ta->Send(Msg(hosts_[1]), nullptr);
  sim_->RunFor(Duration::Seconds(5));
  EXPECT_EQ(arrival.ToMicros(), one_way.ToMicros());
}

TEST_F(TransportTest, SendOverheadSerializesSends) {
  // The cluster's send costs without its connection setup, so the handshake
  // does not delay the first delivery.
  CostModel cost = CostModel::Cluster();
  cost.model_connection_setup = false;
  MakeFabric(cost);
  Transport* ta = fabric_->TransportFor(hosts_[0]);
  Transport* tb = fabric_->TransportFor(hosts_[1]);
  std::vector<TimePoint> arrivals;
  tb->RegisterHandler(msgtype::kTest,
                      [&](const WireMessage&) { arrivals.push_back(tb->env().Now()); });
  const int kBurst = 10;
  for (int i = 0; i < kBurst; ++i) {
    ta->Send(Msg(hosts_[1]), nullptr);
  }
  sim_->RunFor(Duration::Seconds(10));
  ASSERT_EQ(arrivals.size(), static_cast<size_t>(kBurst));
  // Consecutive deliveries are spaced by the per-send overhead.
  const Duration spacing = arrivals.back() - arrivals.front();
  const Duration expected = cost.SendOverhead() * int64_t{kBurst - 1};
  EXPECT_NEAR(spacing.ToMillisF(), expected.ToMillisF(), 0.01);
}

TEST_F(TransportTest, RetransmitsUnderLoss) {
  MakeFabric(CostModel::Simulator());
  net_->SetPerLinkLossRate(0.02);  // lossy but survivable
  Transport* ta = fabric_->TransportFor(hosts_[0]);
  Transport* tb = fabric_->TransportFor(hosts_[1]);
  int received = 0;
  tb->RegisterHandler(msgtype::kTest, [&](const WireMessage&) { ++received; });
  int ok = 0, failed = 0;
  const int kMessages = 50;
  for (int i = 0; i < kMessages; ++i) {
    ta->Send(Msg(hosts_[1]), [&](const Status& s) { s.ok() ? ++ok : ++failed; });
    sim_->RunFor(Duration::Seconds(120));
  }
  // With 2% per-link loss, nearly everything gets through via retransmission.
  EXPECT_GE(received, kMessages - 2);
  EXPECT_GE(ok, kMessages - 2);
  // No duplicate deliveries.
  EXPECT_LE(received, kMessages);
}

TEST_F(TransportTest, ConnectionBreaksUnderExtremeLoss) {
  MakeFabric(CostModel::Simulator());
  net_->SetPerLinkLossRate(0.35);  // per-route success is essentially zero
  Transport* ta = fabric_->TransportFor(hosts_[0]);
  fabric_->TransportFor(hosts_[1]);  // materialize receiver
  int broken = 0;
  for (int i = 0; i < 5; ++i) {
    ta->Send(Msg(hosts_[1]), [&](const Status& s) {
      if (s.code() == StatusCode::kBroken) {
        ++broken;
      }
    });
    sim_->RunFor(Duration::Minutes(5));
  }
  EXPECT_GE(broken, 4);  // sockets break under such adverse conditions (7.6)
}

// Data gets through but every ack is lost: the receiver sees the message
// exactly once, and the sender, never acknowledged, gives up with kBroken
// after max_data_attempts transmissions.
TEST_F(TransportTest, AckBlockedDeliversOnceThenBreaks) {
  const TcpParams tcp;
  MakeFabric(CostModel::Simulator(), tcp);
  net_->faults().BlockOneWay(hosts_[1], hosts_[0]);
  Transport* ta = fabric_->TransportFor(hosts_[0]);
  Transport* tb = fabric_->TransportFor(hosts_[1]);
  int received = 0;
  tb->RegisterHandler(msgtype::kTest, [&](const WireMessage&) { ++received; });
  Status result = Status::Ok();
  int callbacks = 0;
  ta->Send(Msg(hosts_[1]), [&](const Status& s) {
    result = s;
    ++callbacks;
  });
  sim_->RunFor(Duration::Minutes(5));
  EXPECT_EQ(received, 1);
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(result.code(), StatusCode::kBroken);
  EXPECT_EQ(sim_->metrics().MessageCount(MsgCategory::kApp),
            static_cast<uint64_t>(tcp.max_data_attempts));
}

TEST_F(TransportTest, RestartedHostGetsFreshIncarnation) {
  MakeFabric(CostModel::Simulator());
  Transport* ta = fabric_->TransportFor(hosts_[0]);
  Transport* tb = fabric_->TransportFor(hosts_[1]);
  int received = 0;
  tb->RegisterHandler(msgtype::kTest, [&](const WireMessage&) { ++received; });
  ta->Send(Msg(hosts_[1]), nullptr);  // still in flight at the crash
  fabric_->CrashHost(hosts_[1]);
  EXPECT_FALSE(fabric_->IsHostUp(hosts_[1]));
  fabric_->RestartHost(hosts_[1]);
  EXPECT_TRUE(fabric_->IsHostUp(hosts_[1]));
  // Handlers were cleared by the crash; re-register (as restarting node
  // software would). The message addressed to the old incarnation never
  // arrives; a new one does.
  tb->RegisterHandler(msgtype::kTest, [&](const WireMessage&) { received += 10; });
  sim_->RunFor(Duration::Seconds(30));
  EXPECT_EQ(received, 0);
  ta->Send(Msg(hosts_[1]), nullptr);
  sim_->RunFor(Duration::Seconds(30));
  EXPECT_EQ(received, 10);
}

TEST_F(TransportTest, MessageMetricsAttributed) {
  MakeFabric(CostModel::Simulator());
  Transport* ta = fabric_->TransportFor(hosts_[0]);
  Transport* tb = fabric_->TransportFor(hosts_[1]);
  tb->RegisterHandler(msgtype::kTest, [](const WireMessage&) {});
  WireMessage m = Msg(hosts_[1]);
  m.category = MsgCategory::kRpc;
  ta->Send(std::move(m), nullptr);
  sim_->RunFor(Duration::Seconds(5));
  EXPECT_EQ(sim_->metrics().MessageCount(MsgCategory::kRpc), 1u);
}

TEST_F(TransportTest, ClusterModeFirstMessagePaysHandshake) {
  MakeFabric(CostModel::Cluster());
  auto* ta = fabric_->TransportFor(hosts_[0]);
  auto* tb = fabric_->TransportFor(hosts_[1]);
  std::vector<TimePoint> arrivals;
  tb->RegisterHandler(msgtype::kTest, [&](const WireMessage&) { arrivals.push_back(sim_->Now()); });

  const TimePoint t0 = sim_->Now();
  ta->Send(Msg(hosts_[1]), nullptr);
  sim_->RunFor(Duration::Seconds(10));
  const TimePoint t1 = sim_->Now();
  ta->Send(Msg(hosts_[1]), nullptr);
  sim_->RunFor(Duration::Seconds(10));

  ASSERT_EQ(arrivals.size(), 2u);
  const Duration first = arrivals[0] - t0;
  const Duration second = arrivals[1] - t1;
  // First delivery pays the SYN/SYNACK round trip; second reuses the cached
  // connection (this is the Figure 6 1st-vs-2nd RPC effect).
  const Duration rtt = net_->GetPath(hosts_[0], hosts_[1]).latency +
                       net_->GetPath(hosts_[1], hosts_[0]).latency;
  EXPECT_GE(first.ToMicros(), rtt.ToMicros());
  EXPECT_LT(second.ToMicros(), first.ToMicros());
}

TEST_F(TransportTest, SimulatorModeHasNoHandshake) {
  MakeFabric(CostModel::Simulator());
  auto* ta = fabric_->TransportFor(hosts_[0]);
  auto* tb = fabric_->TransportFor(hosts_[1]);
  TimePoint arrival;
  tb->RegisterHandler(msgtype::kTest, [&](const WireMessage&) { arrival = sim_->Now(); });
  ta->Send(Msg(hosts_[1]), nullptr);
  sim_->RunFor(Duration::Seconds(5));
  EXPECT_EQ(arrival.ToMicros(), net_->GetPath(hosts_[0], hosts_[1]).latency.ToMicros());
}

TEST_F(TransportTest, BlockedPairReportsUnreachable) {
  MakeFabric(CostModel::Cluster());
  net_->faults().BlockPair(hosts_[0], hosts_[1]);
  auto* ta = fabric_->TransportFor(hosts_[0]);
  auto* tb = fabric_->TransportFor(hosts_[1]);
  int received = 0;
  tb->RegisterHandler(msgtype::kTest, [&](const WireMessage&) { ++received; });
  Status result;
  ta->Send(Msg(hosts_[1]), [&](const Status& s) { result = s; });
  sim_->RunFor(Duration::Minutes(5));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(received, 0);
}

TEST_F(TransportTest, CrashDropsDeliveriesAndBreaksConnections) {
  MakeFabric(CostModel::Simulator());
  auto* ta = fabric_->TransportFor(hosts_[0]);
  auto* tb = fabric_->TransportFor(hosts_[1]);
  int received = 0;
  tb->RegisterHandler(msgtype::kTest, [&](const WireMessage&) { ++received; });
  ta->Send(Msg(hosts_[1]), nullptr);
  sim_->RunFor(Duration::Seconds(5));
  EXPECT_EQ(received, 1);

  fabric_->CrashHost(hosts_[1]);
  EXPECT_FALSE(fabric_->IsHostUp(hosts_[1]));
  Status result;
  ta->Send(Msg(hosts_[1]), [&](const Status& s) { result = s; });
  sim_->RunFor(Duration::Minutes(5));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(received, 1);
}

TEST_F(TransportTest, InOrderDeliveryPerConnection) {
  MakeFabric(CostModel::Simulator());
  net_->SetPerLinkLossRate(0.05);
  auto* ta = fabric_->TransportFor(hosts_[0]);
  auto* tb = fabric_->TransportFor(hosts_[1]);
  std::vector<uint8_t> order;
  tb->RegisterHandler(msgtype::kTest, [&](const WireMessage& m) { order.push_back(m.payload[0]); });
  for (uint8_t i = 0; i < 30; ++i) {
    WireMessage m;
    m.to = hosts_[1];
    m.type = msgtype::kTest;
    m.category = MsgCategory::kApp;
    m.payload = {i};
    ta->Send(std::move(m), nullptr);
  }
  sim_->RunFor(Duration::Minutes(10));
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_LT(order[i - 1], order[i]);
  }
}

// The steady-state liveness load — PingManager request → transport send →
// delivery → reply → timeout rearm, with a FUSE-style 20-byte piggyback
// payload on both legs — must be allocation-free once warm. This is the
// whole-path twin of the PR 2 timer-rearm guarantee: PayloadBuf inline
// storage, pooled send/delivery state, dense host/connection/peer tables,
// and reused scratch writers together leave nothing to allocate.
TEST(PingFastPathTest, TenThousandWarmPingRoundTripsAllocateNothing) {
  TopologyConfig cfg;
  cfg.num_as = 30;
  Simulation sim(4242);
  SimNetwork net{Topology::Generate(cfg, sim.rng())};
  SimFabric fabric(sim, net, CostModel::Simulator());
  // Co-located hosts: sub-millisecond RTT, so replies always beat the
  // timeout and the cycle never enters the failure path.
  const RouterId router = net.topology().RandomRouter(sim.rng());
  const HostId a = net.AddHostAt(router);
  const HostId b = net.AddHostAt(router);

  const Duration period = Duration::Millis(50);
  const Duration timeout = Duration::Millis(20);
  PingManager ping_a(fabric.TransportFor(a), period, timeout);
  PingManager ping_b(fabric.TransportFor(b), period, timeout);
  static const uint8_t kHash[20] = {0xfa, 0xce, 0xb0, 0x0c, 1, 2, 3, 4, 5, 6,
                                    7,    8,    9,    10,   11, 12, 13, 14, 15, 16};
  uint64_t payload_bytes_seen = 0;
  for (PingManager* pm : {&ping_a, &ping_b}) {
    pm->SetPayloadProvider([](HostId, Writer& w) { w.PutBytes(kHash, sizeof(kHash)); });
    pm->SetPayloadObserver(
        [&payload_bytes_seen](HostId, const uint8_t*, size_t len) { payload_bytes_seen += len; });
  }
  ping_a.UpdateNeighbors({b});
  ping_b.UpdateNeighbors({a});
  ping_a.Start();
  ping_b.Start();

  // Warm up: open the connection, size the pools, queues, and scratch
  // buffers, and let the event wheel touch its slots.
  sim.RunFor(Duration::Seconds(5));
  const uint64_t warm_payload_bytes = payload_bytes_seen;
  EXPECT_GT(warm_payload_bytes, 0u);

  // 10k round trips per direction: 500 s of simulated pinging at 50 ms.
  const uint64_t allocs_before = alloc_counter::Read();
  sim.RunFor(Duration::Seconds(500));
  const uint64_t allocs = alloc_counter::Read() - allocs_before;

  EXPECT_EQ(allocs, 0u) << "warm ping round trips must not touch the heap";
  // Sanity: the window really carried ~10k round trips per direction, with
  // payloads observed on every request and reply.
  const uint64_t payload_bytes = payload_bytes_seen - warm_payload_bytes;
  EXPECT_GE(payload_bytes, uint64_t{4} * 9900 * sizeof(kHash));
}

}  // namespace
}  // namespace fuse
