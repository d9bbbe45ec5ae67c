// The Transport contract, checked on every messaging layer: the simulator
// fabric, the live runtime's in-process delivery, and (on Linux) the TCP socket and UDP datagram fabrics. Each leg
// hosts three endpoints; host 0 talks to host 1 across the layer's wire
// (across fabrics on the socket and datagram legs), host 2 shares host 1's
// fabric, so its sends take the same-process path.
//
// What every layer must keep:
//   * Send stamps msg.from with the sending host, whatever the caller put
//     there;
//   * a handler sees only the type it was registered for;
//   * a loss-free run neither duplicates nor creates messages (the
//     perfect-links properties);
//   * after UnregisterAllHandlers a send is delivered to no one and its
//     callback reports the status recorded below for that layer;
//   * a handler may unregister its own host and still read its captures;
//   * on the simulated layer a clock-rate rule scales the host's timers.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/serialize.h"
#include "net/network.h"
#include "runtime/live_runtime.h"
#include "sim/simulation.h"
#include "transport/tcp_model.h"

#if defined(__linux__)
#include "transport/datagram_transport.h"
#include "transport/socket_transport.h"
#endif

namespace fuse {
namespace {

// The values are part of the test names (gtest prints the parameter bytes),
// so each layer keeps its number.
enum class LayerKind { kSim = 0, kLive = 2, kSocket = 3, kDatagram = 4 };

const char* LayerName(LayerKind k) {
  switch (k) {
    case LayerKind::kSim:
      return "Sim";
    case LayerKind::kLive:
      return "Live";
    case LayerKind::kSocket:
      return "Socket";
    case LayerKind::kDatagram:
      return "Datagram";
  }
  return "Unknown";
}

// One messaging layer with three endpoints, plus the layer's way of running
// code in the protocol context and of letting time pass.
class Leg {
 public:
  virtual ~Leg() = default;
  Transport* At(int i) { return t_[i]; }
  // Runs `fn` where protocol code runs (the loop thread on wall-clock legs).
  virtual void Run(const std::function<void()>& fn) = 0;
  // Lets time pass until `pred` (evaluated in the protocol context) holds.
  virtual bool Await(const std::function<bool()>& pred, Duration bound) = 0;
  virtual void Advance(Duration d) = 0;

 protected:
  Transport* t_[3] = {nullptr, nullptr, nullptr};
};

TopologyConfig SmallTopology() {
  TopologyConfig cfg;
  cfg.num_as = 20;
  return cfg;
}

class SimLeg : public Leg {
 public:
  SimLeg() : sim_(11), net_(Topology::Generate(SmallTopology(), sim_.rng())),
             fabric_(sim_, net_, CostModel::Simulator()) {
    for (Transport*& t : t_) {
      t = fabric_.TransportFor(net_.AddHost(sim_.rng()));
    }
  }
  void Run(const std::function<void()>& fn) override { fn(); }
  bool Await(const std::function<bool()>& pred, Duration bound) override {
    return sim_.RunUntilCondition(pred, sim_.Now() + bound);
  }
  void Advance(Duration d) override { sim_.RunFor(d); }
  FaultInjector& faults() { return net_.faults(); }

 private:
  Simulation sim_;
  SimNetwork net_;
  SimFabric fabric_;
};

LiveRuntime::Config FastLive() {
  LiveRuntime::Config cfg;
  cfg.seed = 11;
  cfg.min_latency = Duration::Micros(100);
  cfg.max_latency = Duration::Micros(500);
  return cfg;
}

// Wall-clock legs: the protocol context is the runtime's loop thread.
class LoopLeg : public Leg {
 public:
  LoopLeg() : rt_(FastLive()) {}
  void Run(const std::function<void()>& fn) override { rt_.RunOnLoop(fn); }
  bool Await(const std::function<bool()>& pred, Duration bound) override {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::microseconds(bound.ToMicros());
    for (;;) {
      bool ok = false;
      rt_.RunOnLoop([&] { ok = pred(); });
      if (ok) {
        return true;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  void Advance(Duration d) override {
    std::this_thread::sleep_for(std::chrono::microseconds(d.ToMicros()));
  }

 protected:
  LiveRuntime rt_;
};

class LiveLeg : public LoopLeg {
 public:
  LiveLeg() {
    for (Transport*& t : t_) {
      t = rt_.CreateHost();
    }
  }
};

#if defined(__linux__)
// Two fabrics on one loop: host 0 on the first, hosts 1 and 2 on the second.
template <typename FabricT>
class FabricLeg : public LoopLeg {
 public:
  FabricLeg() {
    rt_.RunOnLoop([&] {
      a_ = std::make_unique<FabricT>(&rt_);
      b_ = std::make_unique<FabricT>(&rt_);
      const uint16_t pa = a_->Listen();
      const uint16_t pb = b_->Listen();
      for (FabricT* f : {a_.get(), b_.get()}) {
        f->SetPeerAddr(HostId(0), pa);
        f->SetPeerAddr(HostId(1), pb);
        f->SetPeerAddr(HostId(2), pb);
      }
      t_[0] = a_->TransportFor(HostId(0));
      t_[1] = b_->TransportFor(HostId(1));
      t_[2] = b_->TransportFor(HostId(2));
    });
  }
  ~FabricLeg() override { rt_.Stop(); }  // quiesce the loop before fabric teardown

 private:
  std::unique_ptr<FabricT> a_;
  std::unique_ptr<FabricT> b_;
};
#endif

std::unique_ptr<Leg> MakeLeg(LayerKind kind) {
  switch (kind) {
    case LayerKind::kSim:
      return std::make_unique<SimLeg>();
    case LayerKind::kLive:
      return std::make_unique<LiveLeg>();
#if defined(__linux__)
    case LayerKind::kSocket:
      return std::make_unique<FabricLeg<SocketFabric>>();
    case LayerKind::kDatagram:
      return std::make_unique<FabricLeg<DatagramFabric>>();
#else
    default:
      break;
#endif
  }
  return nullptr;
}

constexpr Duration kBound = Duration::Seconds(10);

WireMessage Indexed(HostId to, uint16_t type, uint32_t index) {
  WireMessage m;
  m.to = to;
  m.type = type;
  m.category = MsgCategory::kApp;
  Writer w;
  w.PutU32(index);
  m.payload = w.Take();
  return m;
}

uint32_t IndexOf(const WireMessage& m) {
  Reader r(m.payload);
  return r.GetU32();
}

// Per-sender delivery counts plus every sender callback's status, all
// touched only in the protocol context.
struct Tally {
  std::map<std::pair<uint64_t, uint32_t>, int> received;  // (from, index) -> count
  int stray = 0;  // deliveries that violate the handler's expectations
  std::vector<Status> statuses;
};

// Sends `count` indexed messages of `type` from host `from` to host 1.
void SendBurst(Leg& leg, Tally& tally, int from, uint16_t type, uint32_t first, int count) {
  leg.Run([&] {
    for (int i = 0; i < count; ++i) {
      WireMessage m = Indexed(leg.At(1)->local_host(), type, first + static_cast<uint32_t>(i));
      m.from = HostId(77);  // Send must overwrite whatever the caller left here
      leg.At(from)->Send(std::move(m), [&tally](const Status& s) { tally.statuses.push_back(s); });
    }
  });
}

class TransportContract : public ::testing::TestWithParam<LayerKind> {};

TEST_P(TransportContract, SenderIsStampedAndHandlersSeeOnlyTheirType) {
  std::unique_ptr<Leg> leg = MakeLeg(GetParam());
  Tally tests;
  Tally rpcs;
  const HostId h1 = leg->At(1)->local_host();
  leg->Run([&] {
    leg->At(1)->RegisterHandler(msgtype::kTest, [&](const WireMessage& m) {
      tests.stray += m.type != msgtype::kTest || m.to != h1;
      tests.received[{m.from.value, IndexOf(m)}]++;
    });
    leg->At(1)->RegisterHandler(msgtype::kRpcResponse, [&](const WireMessage& m) {
      rpcs.stray += m.type != msgtype::kRpcResponse || m.to != h1;
      rpcs.received[{m.from.value, IndexOf(m)}]++;
    });
  });
  SendBurst(*leg, tests, 0, msgtype::kTest, 0, 5);
  SendBurst(*leg, rpcs, 0, msgtype::kRpcResponse, 100, 5);
  SendBurst(*leg, tests, 2, msgtype::kTest, 200, 5);
  ASSERT_TRUE(leg->Await([&] { return tests.statuses.size() + rpcs.statuses.size() == 15; },
                         kBound));
  leg->Run([&] {
    EXPECT_EQ(tests.stray, 0);
    EXPECT_EQ(rpcs.stray, 0);
    const uint64_t h0 = leg->At(0)->local_host().value;
    const uint64_t h2 = leg->At(2)->local_host().value;
    for (uint32_t i = 0; i < 5; ++i) {
      EXPECT_EQ((tests.received[{h0, i}]), 1) << "kTest " << i << " from host 0";
      EXPECT_EQ((rpcs.received[{h0, 100 + i}]), 1) << "kRpcResponse " << i << " from host 0";
      EXPECT_EQ((tests.received[{h2, 200 + i}]), 1) << "kTest " << i << " from host 2";
    }
    EXPECT_EQ(tests.received.size(), 10u);
    EXPECT_EQ(rpcs.received.size(), 5u);
  });
}

TEST_P(TransportContract, LossFreeRunNeitherDuplicatesNorCreates) {
  std::unique_ptr<Leg> leg = MakeLeg(GetParam());
  constexpr int kPerSender = 50;
  Tally tally;
  leg->Run([&] {
    leg->At(1)->RegisterHandler(msgtype::kTest, [&](const WireMessage& m) {
      tally.received[{m.from.value, IndexOf(m)}]++;
    });
  });
  SendBurst(*leg, tally, 0, msgtype::kTest, 0, kPerSender);
  SendBurst(*leg, tally, 2, msgtype::kTest, 0, kPerSender);
  ASSERT_TRUE(leg->Await([&] { return tally.statuses.size() == 2 * kPerSender; }, kBound));
  leg->Advance(Duration::Millis(50));  // window for a late duplicate
  leg->Run([&] {
    for (const Status& s : tally.statuses) {
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    // Exactly the sent (sender, index) pairs, each once.
    EXPECT_EQ(tally.received.size(), 2u * kPerSender);
    for (const auto& [key, count] : tally.received) {
      EXPECT_TRUE(key.first == leg->At(0)->local_host().value ||
                  key.first == leg->At(2)->local_host().value);
      EXPECT_LT(key.second, static_cast<uint32_t>(kPerSender));
      EXPECT_EQ(count, 1) << "from " << key.first << " index " << key.second;
    }
  });
}

// Receiver-side unregistration drops deliveries; the sender's callback still
// reports what the layer has always reported here: every layer acks a
// message that reached a live host, handler or not ("delivered and ignored").
TEST_P(TransportContract, SendAfterUnregisterAllHandlers) {
  std::unique_ptr<Leg> leg = MakeLeg(GetParam());
  Tally tally;
  leg->Run([&] {
    leg->At(1)->RegisterHandler(msgtype::kTest, [&](const WireMessage& m) {
      tally.received[{m.from.value, IndexOf(m)}]++;
    });
    leg->At(1)->UnregisterAllHandlers();
  });
  SendBurst(*leg, tally, 0, msgtype::kTest, 0, 1);  // across the wire
  SendBurst(*leg, tally, 2, msgtype::kTest, 1, 1);  // same process on the fabric legs
  ASSERT_TRUE(leg->Await([&] { return tally.statuses.size() == 2; }, kBound));
  leg->Run([&] {
    EXPECT_TRUE(tally.received.empty());
    for (const Status& s : tally.statuses) {
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
  });
}

// A handler that tears down its own host's table (a crash from inside a
// delivery) must not pull the callable out from under itself.
TEST_P(TransportContract, HandlerMayUnregisterItsOwnHost) {
  std::unique_ptr<Leg> leg = MakeLeg(GetParam());
  Tally tally;
  std::vector<std::string> seen;
  auto arm = [&] {
    Transport* self = leg->At(1);
    const std::string note(64, 'n');  // heap-allocated capture
    self->RegisterHandler(msgtype::kTest, [self, note, &seen](const WireMessage&) {
      self->UnregisterAllHandlers();
      seen.push_back(note);
    });
  };
  leg->Run(arm);
  SendBurst(*leg, tally, 0, msgtype::kTest, 0, 2);
  ASSERT_TRUE(leg->Await([&] { return tally.statuses.size() == 2; }, kBound));
  leg->Run(arm);
  SendBurst(*leg, tally, 2, msgtype::kTest, 2, 2);
  ASSERT_TRUE(leg->Await([&] { return tally.statuses.size() == 4; }, kBound));
  leg->Run([&] {
    // One delivery per arming: the second message of each pair found the
    // table empty.
    ASSERT_EQ(seen.size(), 2u);
    for (const std::string& s : seen) {
      EXPECT_EQ(s, std::string(64, 'n'));
    }
  });
}

std::vector<LayerKind> AllLayers() {
  std::vector<LayerKind> kinds = {LayerKind::kSim, LayerKind::kLive};
#if defined(__linux__)
  kinds.push_back(LayerKind::kSocket);
  kinds.push_back(LayerKind::kDatagram);
#endif
  return kinds;
}

INSTANTIATE_TEST_SUITE_P(Layers, TransportContract, ::testing::ValuesIn(AllLayers()),
                         [](const ::testing::TestParamInfo<LayerKind>& pinfo) {
                           return std::string(LayerName(pinfo.param));
                         });

// Clock skew on the simulated layer: a rate-2.0 host's timers fire in half
// the nominal time, a rate-1.0 host's on time, and both read the same clock.
TEST(TransportContractClock, ClockRateHalvesTimerDelaysOnSim) {
  SimLeg leg;
  leg.faults().SetClockRate(leg.At(1)->local_host(), 2.0);
  const TimePoint start = leg.At(0)->env().Now();
  TimePoint nominal;
  TimePoint skewed;
  leg.At(0)->env().Schedule(Duration::Seconds(10), [&] { nominal = leg.At(0)->env().Now(); });
  leg.At(1)->env().Schedule(Duration::Seconds(10), [&] { skewed = leg.At(1)->env().Now(); });
  leg.Advance(Duration::Seconds(20));
  EXPECT_EQ(nominal - start, Duration::Seconds(10));
  EXPECT_EQ(skewed - start, Duration::Seconds(5));
}

}  // namespace
}  // namespace fuse
