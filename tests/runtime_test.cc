// Tests for the runtime layer: cluster churn driver, the live (wall-clock,
// threaded) runtime — the paper's "identical code base except for the base
// messaging layer" claim, exercised for real — its loop turns, and the socket
// transport's per-turn write batching.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/live_runtime.h"
#include "runtime/node.h"
#include "runtime/sim_cluster.h"

#if defined(__linux__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "transport/socket_transport.h"
#endif

namespace fuse {
namespace {

TEST(SimClusterChurnTest, PopulationOscillatesAndRingSurvives) {
  ClusterConfig cfg;
  cfg.num_nodes = 40;
  cfg.seed = 501;
  cfg.topology.num_as = 60;
  cfg.cost = CostModel::Simulator();
  SimCluster cluster(cfg);
  cluster.Build();
  // Churn half the nodes aggressively; stable half stays.
  cluster.StartChurn(20, 20, Duration::Minutes(5), Duration::Minutes(5));
  cluster.sim().RunFor(Duration::Minutes(40));
  cluster.StopChurn();
  const size_t live = cluster.NumLiveNodes();
  EXPECT_GE(live, 25u);
  EXPECT_LE(live, 40u);
  // Let things settle; the stable core must still form a consistent ring.
  cluster.sim().RunFor(Duration::Minutes(15));
  // Routing still works between stable nodes.
  int delivered = 0;
  for (size_t i = 0; i < 20; ++i) {
    cluster.node(i).overlay()->SetRoutedHandler(5, [&](SkipNetNode::RoutedUpcall& u) {
      if (u.at_dest) {
        ++delivered;
      }
      return false;
    });
  }
  for (int t = 0; t < 20; ++t) {
    const size_t a = static_cast<size_t>(cluster.sim().rng().UniformInt(0, 19));
    const size_t b = static_cast<size_t>(cluster.sim().rng().UniformInt(0, 19));
    if (a == b) {
      ++delivered;  // trivially "delivered"
      continue;
    }
    cluster.node(a).overlay()->RouteByName(cluster.RefOf(b).name, 5, {}, MsgCategory::kApp);
  }
  cluster.sim().RunFor(Duration::Minutes(2));
  EXPECT_GE(delivered, 18) << "routing badly degraded after churn";
}

// Regression (PR 6): a node crashed and restarted with NO down-window used
// to be unable to rejoin until the survivors' ping timeouts evicted its dead
// incarnation — greedy routing resolved the join search to the stale table
// entry naming the joiner's own host, and the joiner's self-host guard
// dropped it. The join path is now incarnation-aware: the hop holding the
// stale entry evicts it and routes around, so the first join attempt
// succeeds, long before failure detection (~ping_period + ping_timeout).
TEST(SimClusterRestartTest, InstantRestartRejoinsBeforeFailureDetection) {
  ClusterConfig cfg;
  cfg.num_nodes = 8;
  cfg.seed = 17;
  cfg.topology.num_as = 40;
  cfg.cost = CostModel::Simulator();
  SimCluster cluster(cfg);
  cluster.Build();
  const TimePoint t0 = cluster.env().Now();
  cluster.Crash(3);
  cluster.Restart(3);  // no AdvanceFor between: the down-window is zero
  bool joined = false;
  cluster.Run([&] { joined = cluster.IsJoined(3); });
  EXPECT_TRUE(joined) << "instantly-restarted node did not rejoin";
  const Duration elapsed = cluster.env().Now() - t0;
  EXPECT_LT(elapsed, Duration::Seconds(30))
      << "rejoin took " << elapsed.ToString()
      << " — it waited out failure detection instead of evicting the stale "
         "incarnation on the join path";
}

class LiveFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    LiveRuntime::Config cfg;
    cfg.seed = 7;
    runtime_ = std::make_unique<LiveRuntime>(cfg);
    // Scaled-down protocol constants so the wall-clock test finishes fast.
    overlay_cfg_.ping_period = Duration::Millis(200);
    overlay_cfg_.ping_timeout = Duration::Millis(100);
    overlay_cfg_.join_timeout = Duration::Millis(500);
    overlay_cfg_.query_timeout = Duration::Millis(200);
    overlay_cfg_.repair_delay = Duration::Millis(50);
    overlay_cfg_.leaf_exchange_period = Duration::Millis(500);
    fuse_params_.create_timeout = Duration::Seconds(2);
    fuse_params_.install_timeout = Duration::Seconds(1);
    fuse_params_.member_repair_timeout = Duration::Millis(600);
    fuse_params_.root_repair_timeout = Duration::Seconds(1);
    fuse_params_.link_liveness_timeout = Duration::Millis(400);
    fuse_params_.grace_period = Duration::Millis(100);
    fuse_params_.repair_backoff_initial = Duration::Millis(100);
    fuse_params_.repair_backoff_cap = Duration::Millis(400);
  }

  void BuildNodes(int n) {
    for (int i = 0; i < n; ++i) {
      Transport* t = runtime_->CreateHost();
      char name[16];
      std::snprintf(name, sizeof(name), "live%03d", i);
      nodes_.push_back(nullptr);
      runtime_->RunOnLoop([&, i] {
        nodes_[i] = std::make_unique<Node>(t, name, NumericId(0x1111111111111111ULL * (i + 1)),
                                           overlay_cfg_, fuse_params_);
      });
    }
    // Join sequentially through node 0.
    runtime_->RunOnLoop([&] { nodes_[0]->overlay()->JoinAsFirst(); });
    for (int i = 1; i < n; ++i) {
      std::promise<Status> joined;
      runtime_->RunOnLoop([&] {
        nodes_[i]->overlay()->Join(nodes_[0]->host(),
                                   [&joined](const Status& s) { joined.set_value(s); });
      });
      const Status s = joined.get_future().get();
      ASSERT_TRUE(s.ok()) << "join " << i << ": " << s.ToString();
    }
  }

  void TearDown() override {
    // Stop (and join) the loop thread first: destroying nodes while queued
    // deliveries can still fire is a use-after-free window. Post-stop, node
    // destructors may still Cancel timers against the inert runtime.
    runtime_->Stop();
    nodes_.clear();
  }

  std::unique_ptr<LiveRuntime> runtime_;
  SkipNetConfig overlay_cfg_;
  FuseParams fuse_params_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

TEST_F(LiveFixture, CreateSignalNotifyOverWallClock) {
  BuildNodes(6);
  // Create a group of nodes {1,2,3} rooted at 1.
  std::promise<std::pair<Status, FuseId>> created;
  runtime_->RunOnLoop([&] {
    std::vector<NodeRef> members{nodes_[2]->ref(), nodes_[3]->ref()};
    nodes_[1]->fuse()->CreateGroup(members, [&created](const Status& s, FuseId id) {
      created.set_value({s, id});
    });
  });
  const auto [status, id] = created.get_future().get();
  ASSERT_TRUE(status.ok()) << status.ToString();

  std::atomic<int> fired{0};
  runtime_->RunOnLoop([&] {
    nodes_[2]->fuse()->RegisterFailureHandler(id, [&fired](FuseId) { fired++; });
    nodes_[3]->fuse()->RegisterFailureHandler(id, [&fired](FuseId) { fired++; });
  });
  runtime_->RunOnLoop([&] { nodes_[1]->fuse()->SignalFailure(id); });
  // Wall-clock wait for delivery.
  for (int spin = 0; spin < 100 && fired.load() < 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(fired.load(), 2);
}

TEST_F(LiveFixture, CrashDetectionOverWallClock) {
  BuildNodes(6);
  std::promise<std::pair<Status, FuseId>> created;
  runtime_->RunOnLoop([&] {
    std::vector<NodeRef> members{nodes_[2]->ref(), nodes_[4]->ref()};
    nodes_[1]->fuse()->CreateGroup(members, [&created](const Status& s, FuseId id) {
      created.set_value({s, id});
    });
  });
  const auto [status, id] = created.get_future().get();
  ASSERT_TRUE(status.ok());

  std::atomic<int> fired{0};
  runtime_->RunOnLoop([&] {
    nodes_[1]->fuse()->RegisterFailureHandler(id, [&fired](FuseId) { fired++; });
    nodes_[2]->fuse()->RegisterFailureHandler(id, [&fired](FuseId) { fired++; });
  });
  // Fail-stop crash of member 4.
  runtime_->RunOnLoop([&] {
    nodes_[4]->ShutdownAll();
    runtime_->SetHostDown(nodes_[4]->host(), true);
  });
  for (int spin = 0; spin < 400 && fired.load() < 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(fired.load(), 2) << "live runtime failed to deliver crash notifications";
}

// The ordered-map timer store: Cancel erases the queued event eagerly (one
// erase through the seq index) and rejects ids that already ran — the same
// accounting contract as the sim timer wheel.
TEST(LiveRuntimeTimerTest, CancelIsEagerAndRejectsFiredIds) {
  LiveRuntime::Config cfg;
  cfg.seed = 3;
  LiveRuntime runtime(cfg);
  std::atomic<int> fired{0};

  const TimerId cancelled = runtime.Schedule(Duration::Millis(80), [&fired] { fired += 100; });
  const TimerId kept = runtime.Schedule(Duration::Millis(5), [&fired] { fired += 1; });
  EXPECT_TRUE(runtime.Cancel(cancelled));
  EXPECT_FALSE(runtime.Cancel(cancelled)) << "double cancel must report false";
  EXPECT_FALSE(runtime.Cancel(TimerId())) << "invalid id must report false";

  for (int spin = 0; spin < 200 && fired.load() < 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(fired.load(), 1);
  EXPECT_FALSE(runtime.Cancel(kept)) << "cancel of an already-fired id must report false";

  // Past the cancelled timer's deadline: it must never fire.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_EQ(fired.load(), 1);
  runtime.Stop();
}

// Events with the same delay fire in schedule order. Each Schedule call
// samples the clock, so deadlines are non-decreasing (equal only when two
// calls land on one clock tick); the (deadline, seq) key makes the order
// schedule-FIFO in both cases — this pins the common path, while the seq
// tiebreak for exactly-equal keys is guaranteed by the map key shape.
TEST(LiveRuntimeTimerTest, SameDelayEventsFireInScheduleOrder) {
  LiveRuntime::Config cfg;
  cfg.seed = 4;
  LiveRuntime runtime(cfg);
  std::mutex mu;
  std::string order;
  for (const char* tag : {"a", "b", "c", "d"}) {
    runtime.Schedule(Duration::Millis(30), [&mu, &order, tag] {
      std::lock_guard<std::mutex> lock(mu);
      order += tag;
    });
  }
  for (int spin = 0; spin < 200; ++spin) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (order.size() == 4) {
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Join the loop thread before `mu`/`order` go out of scope: a starved
  // callback must not fire into destroyed locals.
  runtime.Stop();
  EXPECT_EQ(order, "abcd");
}

// Regression (PR 5): Send draws from the runtime rng, which is protocol
// state shared with the loop thread. Send used to sample it outside the
// lock, so concurrent Sends from an application thread and the loop thread
// raced on the generator state. Two threads hammering Send while the loop
// delivers must be clean under TSan (this test is part of the CI TSan job's
// LiveRuntime filter).
TEST(LiveRuntimeRaceTest, ConcurrentSendsAreDataRaceFree) {
  LiveRuntime::Config cfg;
  cfg.seed = 11;
  cfg.loss_probability = 0.2;  // force Bernoulli + UniformInt draws per send
  cfg.min_latency = Duration::Micros(50);
  cfg.max_latency = Duration::Micros(500);
  LiveRuntime runtime(cfg);
  Transport* a = runtime.CreateHost();
  Transport* b = runtime.CreateHost();
  std::atomic<int> delivered{0};
  std::atomic<int> acked{0};
  b->RegisterHandler(msgtype::kTest, [&delivered](const WireMessage&) { delivered++; });

  auto send_burst = [&](Transport* t, HostId to, int count) {
    for (int i = 0; i < count; ++i) {
      WireMessage m;
      m.to = to;
      m.type = msgtype::kTest;
      m.category = MsgCategory::kApp;
      t->Send(std::move(m), [&acked](const Status&) { acked++; });
    }
  };
  // Several application threads hammering Send while the loop thread sends
  // continuously from scheduled events (the protocol's own path) AND draws
  // protocol jitter through env().rng(), exactly as the overlay's ping
  // maintenance does — the interleavings of the original race, dense enough
  // that the unlocked draws of the buggy version overlap rather than being
  // serialized through the surrounding critical sections.
  constexpr int kAppThreads = 4;
  constexpr int kAppSends = 500;
  constexpr int kLoopBursts = 50;
  constexpr int kLoopBurstSends = 100;
  const int total = kAppThreads * kAppSends + kLoopBursts * kLoopBurstSends;
  for (int i = 0; i < kLoopBursts; ++i) {
    runtime.Schedule(Duration::Zero(), [&] {
      // A long lock-free stretch of protocol draws: wide enough that an
      // application thread's Send reliably overlaps it, so a Send path that
      // shared this generator (even with its own draws locked) is flagged.
      for (int d = 0; d < 20000; ++d) {
        runtime.rng().UniformInt(0, 1000);
      }
      send_burst(a, b->local_host(), kLoopBurstSends);
    });
  }
  std::vector<std::thread> apps;
  for (int t = 0; t < kAppThreads; ++t) {
    apps.emplace_back([&] { send_burst(a, b->local_host(), kAppSends); });
  }
  for (auto& t : apps) {
    t.join();
  }
  for (int spin = 0; spin < 1000 && acked.load() < total; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  runtime.Stop();
  EXPECT_EQ(acked.load(), total) << "every send must resolve its callback";
  EXPECT_GT(delivered.load(), 0);
}

// Regression (PR 5): RunOnLoop used to block forever when Stop() won the
// race — the queued closure was dropped without running and the caller's
// future never resolved. Stop must release every pending caller with "not
// run", and post-stop RunOnLoop must refuse immediately.
TEST(LiveRuntimeStopTest, StopReleasesPendingRunOnLoop) {
  for (int round = 0; round < 20; ++round) {
    LiveRuntime::Config cfg;
    cfg.seed = 5;
    auto runtime = std::make_unique<LiveRuntime>(cfg);
    std::atomic<int> ran{0};
    std::atomic<int> reported_ran{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> callers;
    callers.reserve(4);
    for (int t = 0; t < 4; ++t) {
      callers.emplace_back([&] {
        while (!go.load()) {
        }
        for (int i = 0; i < 50; ++i) {
          if (runtime->RunOnLoop([&ran] { ran++; })) {
            reported_ran++;
          }
        }
      });
    }
    go = true;
    // Race Stop against the callers; some closures run, the rest must be
    // refused — but nobody may hang.
    runtime->Stop();
    for (auto& c : callers) {
      c.join();
    }
    // The return value tells the truth: exactly the closures reported as run
    // actually ran.
    EXPECT_EQ(ran.load(), reported_ran.load());
    // Post-stop calls refuse immediately.
    EXPECT_FALSE(runtime->RunOnLoop([] {}));
  }
}

// --- Loop turns: wakeups and before-wait hooks ----------------------------

// Polls `pred` (read on the loop thread) until it holds or `bound` passes.
bool AwaitOnLoop(LiveRuntime& rt, const std::function<bool()>& pred,
                 std::chrono::milliseconds bound = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + bound;
  for (;;) {
    bool ok = false;
    rt.RunOnLoop([&] { ok = pred(); });
    if (ok) {
      return true;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

double SecondsSince(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t).count();
}

// Schedule does not write the wakeup eventfd from the loop thread; the loop
// re-reads the earliest deadline before it waits instead. A timer armed from a
// timer callback, earlier than the one the timerfd is armed for, must still
// fire on time.
TEST(LiveRuntimeWakeupTest, TimerFromTimerCallbackBeatsArmedDeadline) {
  LiveRuntime rt(LiveRuntime::Config{});
  std::atomic<bool> fired{false};
  const auto t0 = std::chrono::steady_clock::now();
  rt.Schedule(Duration::Seconds(30), [] {});
  rt.Schedule(Duration::Millis(1), [&rt, &fired] {
    rt.Schedule(Duration::Millis(5), [&fired] { fired = true; });
  });
  while (!fired.load() && SecondsSince(t0) < 10) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(fired.load());
  EXPECT_LT(SecondsSince(t0), 5.0) << "timer waited for the armed deadline";
  rt.Stop();
}

// Cross-thread Schedule still wakes a loop blocked with nothing armed.
TEST(LiveRuntimeWakeupTest, CrossThreadScheduleWakesBlockedLoop) {
  LiveRuntime rt(LiveRuntime::Config{});
  // Let the loop reach its wait with an empty queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::atomic<bool> fired{false};
  const auto t0 = std::chrono::steady_clock::now();
  rt.Schedule(Duration::Millis(2), [&fired] { fired = true; });
  while (!fired.load() && SecondsSince(t0) < 10) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(fired.load());
  EXPECT_LT(SecondsSince(t0), 5.0);
  rt.Stop();
}

// A hook runs once, after the turn that added it; a cancelled one never runs;
// one added by a hook runs in the same drain.
TEST(LiveRuntimeWakeupTest, BeforeWaitHooksRunOncePerRegistration) {
  LiveRuntime rt(LiveRuntime::Config{});
  int ran = 0;
  int cancelled = 0;
  int chained = 0;
  rt.RunOnLoop([&] {
    rt.RunBeforeWait([&] {
      ++ran;
      rt.RunBeforeWait([&] { ++chained; });
    });
    const uint64_t key = rt.RunBeforeWait([&] { ++cancelled; });
    rt.CancelBeforeWait(key);
    EXPECT_EQ(ran, 0) << "a hook ran inside the turn that added it";
  });
  ASSERT_TRUE(AwaitOnLoop(rt, [&] { return ran == 1 && chained == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  rt.RunOnLoop([&] {
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(chained, 1);
    EXPECT_EQ(cancelled, 0);
  });
  rt.Stop();
}

#if defined(__linux__)

// A timer armed from an fd handler, earlier than the armed timerfd, fires on
// time.
TEST(LiveRuntimeWakeupTest, TimerFromFdHandlerBeatsArmedDeadline) {
  LiveRuntime rt(LiveRuntime::Config{});
  const int efd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  ASSERT_GE(efd, 0);
  std::atomic<bool> fired{false};
  rt.RunOnLoop([&] {
    rt.Schedule(Duration::Seconds(30), [] {});
    rt.WatchFd(efd, EPOLLIN, [&](uint32_t) {
      uint64_t v;
      while (::read(efd, &v, sizeof(v)) > 0) {
      }
      rt.Schedule(Duration::Millis(5), [&fired] { fired = true; });
    });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto t0 = std::chrono::steady_clock::now();
  const uint64_t one = 1;
  ASSERT_EQ(::write(efd, &one, sizeof(one)), static_cast<ssize_t>(sizeof(one)));
  while (!fired.load() && SecondsSince(t0) < 10) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(fired.load());
  EXPECT_LT(SecondsSince(t0), 5.0) << "timer waited for the armed deadline";
  rt.RunOnLoop([&] { rt.UnwatchFd(efd); });
  rt.Stop();
  ::close(efd);
}

// --- FramedSocket: one write per socket per loop turn ----------------------

// Two framed sockets on the ends of a socketpair, driven by one loop. All
// socket calls run on the loop thread.
class FramedPair {
 public:
  explicit FramedPair(LiveRuntime& rt) : rt_(rt) {
    int sv[2];
    FUSE_CHECK(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0, sv) == 0);
    rt_.RunOnLoop([&] {
      a = std::make_unique<FramedSocket>(&rt_);
      b = std::make_unique<FramedSocket>(&rt_);
      b->set_on_frame([this](const uint8_t* d, size_t l) { frames.emplace_back(d, d + l); });
      b->set_on_close([this] { ++b_closed; });
      a->Adopt(sv[0], /*connecting=*/false);
      b->Adopt(sv[1], /*connecting=*/false);
    });
  }
  ~FramedPair() {
    rt_.RunOnLoop([&] {
      a.reset();
      b.reset();
    });
  }

  uint64_t SendSyscalls() {
    uint64_t n = 0;
    rt_.RunOnLoop([&] { n = rt_.metrics().GetCounter(Counter::kTransportSendSyscalls); });
    return n;
  }

  LiveRuntime& rt_;
  std::unique_ptr<FramedSocket> a;
  std::unique_ptr<FramedSocket> b;
  std::vector<std::vector<uint8_t>> frames;  // received by b
  int b_closed = 0;
};

std::vector<uint8_t> NumberedFrame(uint32_t i, size_t len) {
  std::vector<uint8_t> f(len);
  for (size_t k = 0; k < len; ++k) {
    f[k] = static_cast<uint8_t>(i * 31 + k);
  }
  std::memcpy(f.data(), &i, sizeof(i));
  return f;
}

TEST(LiveRuntimeWriteBatchTest, FramesOfOneTurnLeaveInOneWrite) {
  LiveRuntime rt(LiveRuntime::Config{});
  FramedPair p(rt);
  constexpr uint32_t kFrames = 1000;
  const uint64_t before = p.SendSyscalls();
  rt.RunOnLoop([&] {
    for (uint32_t i = 0; i < kFrames; ++i) {
      const auto f = NumberedFrame(i, 12 + i % 20);
      p.a->SendFrame(f.data(), f.size());
    }
  });
  ASSERT_TRUE(AwaitOnLoop(rt, [&] { return p.frames.size() == kFrames; }));
  for (uint32_t i = 0; i < kFrames; ++i) {
    EXPECT_EQ(p.frames[i], NumberedFrame(i, 12 + i % 20)) << "frame " << i;
  }
  // ~32 KB, under the backlog cap: one send(2), not one per frame.
  EXPECT_LE(p.SendSyscalls() - before, 2u);
  rt.Stop();
}

TEST(LiveRuntimeWriteBatchTest, BuffersGiveBackCapacityAfterBurst) {
  LiveRuntime rt(LiveRuntime::Config{});
  FramedPair p(rt);
  // 4 MiB in 16 KiB frames, then one 2 MiB frame, all queued in one turn:
  // the backlog cap flushes early, the socketpair pushes back, and EPOLLOUT
  // drains the rest.
  constexpr uint32_t kFrames = 256;
  constexpr size_t kBig = 2u << 20;
  const uint64_t before = p.SendSyscalls();
  rt.RunOnLoop([&] {
    for (uint32_t i = 0; i < kFrames; ++i) {
      const auto f = NumberedFrame(i, 16u << 10);
      p.a->SendFrame(f.data(), f.size());
    }
    const auto big = NumberedFrame(kFrames, kBig);
    p.a->SendFrame(big.data(), big.size());
  });
  ASSERT_TRUE(AwaitOnLoop(rt, [&] { return p.frames.size() == kFrames + 1; }));
  for (uint32_t i = 0; i < kFrames; ++i) {
    ASSERT_EQ(p.frames[i], NumberedFrame(i, 16u << 10)) << "frame " << i;
  }
  EXPECT_EQ(p.frames[kFrames], NumberedFrame(kFrames, kBig));
  EXPECT_LT(p.SendSyscalls() - before, kFrames);
  rt.RunOnLoop([&] {
    p.frames.clear();
    EXPECT_LE(p.a->buffer_capacity(), 2 * FramedSocket::kBufferCapBytes);
    EXPECT_LE(p.b->buffer_capacity(), 2 * FramedSocket::kBufferCapBytes);
  });
  rt.Stop();
}

// A frame still queued when its socket closes is dropped with the socket:
// the end-of-turn flush is cancelled, so it never writes (or touches a freed
// socket — this runs clean under ASan), and the peer sees EOF, not the frame.
TEST(LiveRuntimeWriteBatchTest, CloseDropsQueuedFramesAndCancelsTheFlush) {
  LiveRuntime rt(LiveRuntime::Config{});
  FramedPair p(rt);
  const uint64_t before = p.SendSyscalls();
  rt.RunOnLoop([&] {
    const auto f = NumberedFrame(7, 32);
    p.a->SendFrame(f.data(), f.size());
    p.a->CloseFd();
    p.a->SendFrame(f.data(), f.size());  // closed: dropped
    p.a.reset();
  });
  ASSERT_TRUE(AwaitOnLoop(rt, [&] { return p.b_closed == 1; }));
  rt.RunOnLoop([&] {
    EXPECT_TRUE(p.frames.empty());
    EXPECT_EQ(p.b_closed, 1);
  });
  EXPECT_EQ(p.SendSyscalls(), before);
  rt.Stop();
}

// --- SocketFabric: pending sends fail once with kBroken --------------------

struct FabricPair {
  explicit FabricPair(LiveRuntime& rt) : rt_(rt) {
    rt_.RunOnLoop([&] {
      a = std::make_unique<SocketFabric>(&rt_);
      b = std::make_unique<SocketFabric>(&rt_);
      const uint16_t pa = a->Listen();
      const uint16_t pb = b->Listen();
      for (SocketFabric* f : {a.get(), b.get()}) {
        f->SetPeerAddr(HostId(0), pa);
        f->SetPeerAddr(HostId(1), pb);
      }
      ta = a->TransportFor(HostId(0));
      tb = b->TransportFor(HostId(1));
      tb->RegisterHandler(msgtype::kTest, [this](const WireMessage&) { ++delivered; });
    });
  }
  ~FabricPair() {
    rt_.RunOnLoop([&] {
      a.reset();
      b.reset();
    });
  }

  // Sends one message 0 -> 1, recording its outcome.
  void Send() {
    WireMessage m;
    m.to = HostId(1);
    m.type = msgtype::kTest;
    m.category = MsgCategory::kApp;
    ta->Send(std::move(m), [this](const Status& s) { outcomes.push_back(s); });
  }

  LiveRuntime& rt_;
  std::unique_ptr<SocketFabric> a;
  std::unique_ptr<SocketFabric> b;
  Transport* ta = nullptr;
  Transport* tb = nullptr;
  int delivered = 0;
  std::vector<Status> outcomes;
};

// The peer closes in the same turn the frame is queued: the frame meets a
// closed connection, and its callback reports kBroken exactly once.
TEST(LiveRuntimeWriteBatchTest, PendingSendFailsOnceAtPeerEof) {
  LiveRuntime rt(LiveRuntime::Config{});
  FabricPair p(rt);
  rt.RunOnLoop([&] { p.Send(); });
  ASSERT_TRUE(AwaitOnLoop(rt, [&] { return p.outcomes.size() == 1; }));
  rt.RunOnLoop([&] {
    ASSERT_TRUE(p.outcomes[0].ok());
    p.Send();
    p.b.reset();  // closes the inbound end of the connection
  });
  ASSERT_TRUE(AwaitOnLoop(rt, [&] { return p.outcomes.size() >= 2; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  rt.RunOnLoop([&] {
    ASSERT_EQ(p.outcomes.size(), 2u);
    EXPECT_EQ(p.outcomes[1].code(), StatusCode::kBroken) << p.outcomes[1].ToString();
    EXPECT_EQ(p.delivered, 1);
  });
  rt.Stop();
}

// A send queued behind a dial that never succeeds fails with kBroken exactly
// once, when the connection is broken past its retry budget.
TEST(LiveRuntimeWriteBatchTest, PendingSendFailsOnceAtBreakConn) {
  LiveRuntime rt(LiveRuntime::Config{});
  FabricPair p(rt);
  rt.RunOnLoop([&] {
    // Retarget host 1 at a port nobody listens on.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    ::close(fd);
    p.a->SetPeerAddr(HostId(1), ntohs(addr.sin_port));
    p.Send();
    p.Send();
  });
  ASSERT_TRUE(AwaitOnLoop(rt, [&] { return p.outcomes.size() >= 2; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  rt.RunOnLoop([&] {
    ASSERT_EQ(p.outcomes.size(), 2u);
    for (const Status& s : p.outcomes) {
      EXPECT_EQ(s.code(), StatusCode::kBroken) << s.ToString();
    }
    EXPECT_EQ(p.delivered, 0);
  });
  rt.Stop();
}

// Destroying a fabric with a frame queued for the end of the turn cancels
// the flush: the hook must not run on the freed socket (ASan).
TEST(LiveRuntimeWriteBatchTest, FabricTeardownWithQueuedFrame) {
  LiveRuntime rt(LiveRuntime::Config{});
  FabricPair p(rt);
  rt.RunOnLoop([&] { p.Send(); });
  ASSERT_TRUE(AwaitOnLoop(rt, [&] { return p.outcomes.size() == 1; }));
  rt.RunOnLoop([&] {
    p.Send();
    p.a.reset();
  });
  // A turn later the loop is still healthy.
  bool ran = false;
  ASSERT_TRUE(rt.RunOnLoop([&] { ran = true; }));
  EXPECT_TRUE(ran);
  rt.Stop();
}

#endif  // defined(__linux__)

}  // namespace
}  // namespace fuse
