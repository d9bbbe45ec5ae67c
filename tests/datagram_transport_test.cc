// Datagram reliability-layer semantics, tested fabric-to-fabric over real
// loopback UDP sockets on one LiveRuntime loop. Where the parity suites show
// the protocol stack survives the transport swap, these pin the transport's
// own contract: duplicate deliveries are suppressed (and re-acked), records
// reorder freely across coalesced batch boundaries without breaking
// exactly-once delivery, a lost ack and a lost data record are
// distinguishable only by outcome (Ok after heal vs kBroken after retransmit
// exhaustion — both are *silence* on the wire), and a loss burst clamps the
// congestion window instead of amplifying load. Faults come from the seeded
// FaultInjector replica, so every run draws the same losses.
#include <gtest/gtest.h>

#if defined(__linux__)

#include <chrono>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "common/serialize.h"
#include "runtime/live_runtime.h"
#include "transport/datagram_transport.h"
#include "transport/peer_address_map.h"

namespace fuse {
namespace {

// Two datagram fabrics on one loop, linked both ways — the smallest topology
// where data and acks cross real sockets. Faults are per-fabric, like the
// per-worker rule replicas in the process deployment: a_ rules govern what A
// transmits, b_ rules govern what B delivers and acks.
class DatagramPair {
 public:
  DatagramPair(DatagramFabric::Options oa, DatagramFabric::Options ob)
      : rt_(RuntimeConfig()) {
    rt_.RunOnLoop([&] {
      a_ = std::make_unique<DatagramFabric>(&rt_, oa);
      b_ = std::make_unique<DatagramFabric>(&rt_, ob);
      const uint16_t pa = a_->Listen();
      const uint16_t pb = b_->Listen();
      a_->SetPeerAddr(hb_, pb);
      b_->SetPeerAddr(ha_, pa);
      ta_ = a_->TransportFor(ha_);
      tb_ = b_->TransportFor(hb_);
    });
  }

  ~DatagramPair() { rt_.Stop(); }  // quiesce the loop before fabric teardown

  // Marshals `fn` onto the loop thread (all fabric access happens there).
  void Run(const std::function<void()>& fn) { rt_.RunOnLoop(fn); }

  // Polls `pred` on the loop thread until true or the bound expires.
  bool Await(const std::function<bool()>& pred, Duration bound) {
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

  LiveRuntime& rt() { return rt_; }
  DatagramFabric& a() { return *a_; }
  DatagramFabric& b() { return *b_; }
  Transport* ta() { return ta_; }
  Transport* tb() { return tb_; }  // binds hb as local; delivery needs it
  HostId ha() const { return ha_; }
  HostId hb() const { return hb_; }

  // Sends one kTest message A->B with a u32 index payload.
  void SendIndexed(uint32_t index, Transport::SendCallback cb) {
    Run([&] {
      WireMessage m;
      m.to = hb_;
      m.type = msgtype::kTest;
      m.category = MsgCategory::kApp;
      Writer w;
      w.PutU32(index);
      m.payload = w.Take();
      ta_->Send(std::move(m), std::move(cb));
    });
  }

 private:
  static LiveRuntime::Config RuntimeConfig() {
    LiveRuntime::Config cfg;
    cfg.seed = 7;
    return cfg;
  }

  LiveRuntime rt_;
  std::unique_ptr<DatagramFabric> a_;
  std::unique_ptr<DatagramFabric> b_;
  Transport* ta_ = nullptr;
  Transport* tb_ = nullptr;
  HostId ha_{1};
  HostId hb_{2};
};

DatagramFabric::Options FastRto() {
  DatagramFabric::Options o;
  o.rto_initial = Duration::Millis(5);
  o.rto_max = Duration::Millis(20);
  return o;
}

// A lost ack must not produce a duplicate delivery: the receiver suppresses
// the retransmit by sequence watermark, re-acks it, and once the reverse
// path heals the sender's callback completes Ok — the app never learns the
// first ack died.
TEST(DatagramSemantics, DuplicateDeliverySuppressedWhenAcksLost) {
  DatagramFabric::Options oa = FastRto();
  oa.max_retransmits = 200;  // must not exhaust before the heal below
  DatagramPair pair(oa, FastRto());

  int delivered = 0;
  bool acked = false;
  Status status = Status::Ok();
  pair.Run([&] {
    pair.tb()->RegisterHandler(msgtype::kTest, [&](const WireMessage&) { ++delivered; });
    // Silence on the reverse path only: data flows, acks evaporate.
    pair.b().faults().BlockOneWay(pair.hb(), pair.ha());
  });
  pair.SendIndexed(0, [&](const Status& s) {
    status = s;
    acked = true;
  });

  // The record arrives, retransmits arrive again, and the receiver suppresses
  // every copy after the first.
  ASSERT_TRUE(pair.Await([&] { return delivered >= 1; }, Duration::Seconds(5)));
  ASSERT_TRUE(pair.Await(
      [&] { return pair.rt().metrics().GetCounter(Counter::kAcksDedupedTotal) >= 2; },
      Duration::Seconds(5)))
      << "retransmits were not suppressed as duplicates";
  bool acked_now = true;
  pair.Run([&] { acked_now = acked; });
  EXPECT_FALSE(acked_now) << "sender saw an ack that was supposed to be dropped";

  // Heal the reverse path: a re-ack of the suppressed duplicate completes
  // the original send.
  pair.Run([&] { pair.b().faults().UnblockOneWay(pair.hb(), pair.ha()); });
  ASSERT_TRUE(pair.Await([&] { return acked; }, Duration::Seconds(5)));
  EXPECT_TRUE(status.ok()) << status.ToString();

  int final_delivered = 0;
  pair.Run([&] { final_delivered = delivered; });
  EXPECT_EQ(final_delivered, 1) << "duplicate retransmits reached the handler";
}

// A lost data record is pure silence: no error signal, no delivery — the
// callback reports kBroken only after the retransmit budget exhausts, which
// is how a SIGKILLed peer is observed on this transport.
TEST(DatagramSemantics, DataLostIsSilenceThenRetransmitExhaustion) {
  DatagramFabric::Options oa = FastRto();
  oa.max_retransmits = 3;
  DatagramPair pair(oa, FastRto());

  int delivered = 0;
  bool done = false;
  Status status = Status::Ok();
  pair.Run([&] {
    pair.tb()->RegisterHandler(msgtype::kTest, [&](const WireMessage&) { ++delivered; });
    // Silence on the forward path: the record is dropped at pack time.
    pair.a().faults().BlockOneWay(pair.ha(), pair.hb());
  });
  pair.SendIndexed(0, [&](const Status& s) {
    status = s;
    done = true;
  });

  ASSERT_TRUE(pair.Await([&] { return done; }, Duration::Seconds(10)));
  EXPECT_FALSE(status.ok()) << "a never-delivered record must not ack Ok";
  EXPECT_NE(status.ToString().find("retransmit"), std::string::npos)
      << "failure must name retransmit exhaustion, got: " << status.ToString();
  int final_delivered = 0;
  uint64_t broken = 0;
  pair.Run([&] {
    final_delivered = delivered;
    broken = pair.a().debug_stats().broken_sends;
  });
  EXPECT_EQ(final_delivered, 0);
  EXPECT_EQ(broken, 1u);
}

// Reordering across coalesced batch boundaries: with reorder jitter some
// records ride delayed solo datagrams while the rest stay in coalesced
// batches, so arrival order scrambles relative to send order. Delivery must
// stay exactly-once for every record regardless.
TEST(DatagramSemantics, ReorderAcrossBatchBoundaryDeliversExactlyOnce) {
  constexpr uint32_t kMessages = 200;
  DatagramFabric::Options oa = FastRto();
  oa.max_retransmits = 200;
  DatagramPair pair(oa, FastRto());

  std::set<uint32_t> seen;
  int dups = 0;
  int acked = 0;
  pair.Run([&] {
    pair.tb()->RegisterHandler(msgtype::kTest, [&](const WireMessage& m) {
      Reader r(m.payload.data(), m.payload.size());
      const uint32_t idx = r.GetU32();
      if (!seen.insert(idx).second) {
        ++dups;
      }
    });
    // Up to 2 ms of per-record jitter on everything A transmits.
    pair.a().faults().SetReorderJitter(pair.ha(), Duration::Millis(2));
  });
  for (uint32_t i = 0; i < kMessages; ++i) {
    pair.SendIndexed(i, [&acked](const Status& s) {
      ASSERT_TRUE(s.ok()) << s.ToString();
      ++acked;
    });
  }

  ASSERT_TRUE(pair.Await(
      [&] { return seen.size() == kMessages && acked == static_cast<int>(kMessages); },
      Duration::Seconds(20)))
      << "delivered " << seen.size() << ", acked " << acked;
  int final_dups = -1;
  pair.Run([&] { final_dups = dups; });
  EXPECT_EQ(final_dups, 0) << "reordered retransmit races leaked duplicates to the handler";
}

// A 50% loss burst must clamp the congestion window (multiplicative
// decrease, floor cwnd_min) while the retransmit layer recovers every
// record exactly once after the burst passes.
TEST(DatagramSemantics, CongestionWindowClampsUnderLossBurst) {
  constexpr uint32_t kMessages = 300;
  DatagramFabric::Options oa = FastRto();
  oa.max_retransmits = 12;  // survive repeated 50% drops of the same record
  DatagramPair pair(oa, FastRto());

  std::set<uint32_t> seen;
  int dups = 0;
  int acked = 0;
  pair.Run([&] {
    pair.tb()->RegisterHandler(msgtype::kTest, [&](const WireMessage& m) {
      Reader r(m.payload.data(), m.payload.size());
      if (!seen.insert(r.GetU32()).second) {
        ++dups;
      }
    });
    const TimePoint now = pair.rt().Now();
    pair.a().faults().AddLossBurst(pair.ha(), now, now + Duration::Millis(500), 0.5);
  });
  for (uint32_t i = 0; i < kMessages; ++i) {
    pair.SendIndexed(i, [&acked](const Status& s) {
      ASSERT_TRUE(s.ok()) << s.ToString();
      ++acked;
    });
  }

  ASSERT_TRUE(pair.Await(
      [&] { return seen.size() == kMessages && acked == static_cast<int>(kMessages); },
      Duration::Seconds(30)))
      << "delivered " << seen.size() << ", acked " << acked;

  DatagramFabric::DebugStats stats;
  int final_dups = -1;
  uint64_t retransmit_counter = 0;
  pair.Run([&] {
    stats = pair.a().debug_stats();
    final_dups = dups;
    retransmit_counter = pair.rt().metrics().GetCounter(Counter::kRetransmitsTotal);
  });
  EXPECT_EQ(final_dups, 0);
  EXPECT_GT(stats.retransmits, 0u) << "a 50% burst must force retransmits";
  DatagramFabric::Options defaults;
  EXPECT_LE(stats.max_inflight, uint64_t{defaults.cwnd_max})
      << "congestion restraint failed to bound unacked records in flight";
  EXPECT_LT(stats.min_cwnd, defaults.cwnd_max) << "the window was never clamped";
  EXPECT_GE(stats.min_cwnd, defaults.cwnd_min);
  EXPECT_GT(retransmit_counter, 0u);
}

// Address-map churn retargets traffic already in flight. A record is sent to
// a dead incarnation of the destination host (its fabric drops everything for
// the killed host without acking — exactly what a SIGKILLed worker looks like
// on this transport), retransmits accumulate against that stale endpoint, and
// then the restarted incarnation advertises a fresh port via SetPeerAddr.
// Because the fabric resolves endpoints at transmit time — not enqueue time —
// the pending retransmits retarget on their next tick and the original send
// completes Ok with exactly one delivery, at the new endpoint.
TEST(DatagramSemantics, SetPeerAddrRetargetsInFlightRetransmits) {
  LiveRuntime::Config rcfg;
  rcfg.seed = 7;
  LiveRuntime rt(rcfg);
  const HostId ha{1};
  const HostId hb{2};
  std::unique_ptr<DatagramFabric> a;
  std::unique_ptr<DatagramFabric> b_dead;  // first incarnation of hb
  std::unique_ptr<DatagramFabric> b_new;   // restarted incarnation, new port
  Transport* ta = nullptr;
  uint16_t port_new = 0;
  int delivered = 0;
  rt.RunOnLoop([&] {
    DatagramFabric::Options oa = FastRto();
    oa.max_retransmits = 500;  // must not exhaust during the dead window
    a = std::make_unique<DatagramFabric>(&rt, oa);
    b_dead = std::make_unique<DatagramFabric>(&rt, FastRto());
    b_new = std::make_unique<DatagramFabric>(&rt, FastRto());
    const uint16_t port_a = a->Listen();
    const uint16_t port_dead = b_dead->Listen();
    port_new = b_new->Listen();
    // The dead incarnation: hb was bound here, then in-place killed — its
    // handlers are gone and the fault replica marks the host down, so
    // arriving records are dropped without an ack.
    b_dead->TransportFor(hb);
    b_dead->faults().SetHostDown(hb, true);
    // The restarted incarnation delivers and acks normally.
    b_new->TransportFor(hb)->RegisterHandler(msgtype::kTest,
                                             [&](const WireMessage&) { ++delivered; });
    b_new->SetPeerAddr(ha, port_a);
    // The sender still believes hb lives at the dead incarnation's port.
    a->SetPeerAddr(hb, port_dead);
    ta = a->TransportFor(ha);
  });
  auto await = [&](const std::function<bool()>& pred, Duration bound) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::microseconds(bound.ToMicros());
    for (;;) {
      bool ok = false;
      rt.RunOnLoop([&] { ok = pred(); });
      if (ok) {
        return true;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  };

  bool acked = false;
  Status status = Status::Broken("unset");
  rt.RunOnLoop([&] {
    WireMessage m;
    m.to = hb;
    m.type = msgtype::kTest;
    m.category = MsgCategory::kApp;
    Writer w;
    w.PutU32(0);
    m.payload = w.Take();
    ta->Send(std::move(m), [&](const Status& s) {
      status = s;
      acked = true;
    });
  });

  // Retransmits pile up against the dead endpoint: silence, no ack.
  const bool saw_retransmits =
      await([&] { return a->debug_stats().retransmits >= 2; }, Duration::Seconds(10));
  bool acked_early = true;
  rt.RunOnLoop([&] { acked_early = acked; });

  // The fresh incarnation re-advertises: one map edit, no new Send calls.
  rt.RunOnLoop([&] { a->SetPeerAddr(hb, port_new); });
  const bool completed =
      await([&] { return acked && delivered >= 1; }, Duration::Seconds(10));

  int final_delivered = 0;
  rt.RunOnLoop([&] { final_delivered = delivered; });
  rt.Stop();  // quiesce before fabric teardown and before reading `status`
  ASSERT_TRUE(saw_retransmits) << "no retransmits against the dead endpoint";
  EXPECT_FALSE(acked_early) << "send acked while pointed at the dead incarnation";
  ASSERT_TRUE(completed) << "retransmits never retargeted to the new endpoint";
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(final_delivered, 1) << "retargeting duplicated the delivery";
}

// The deployment-facing text format behind multi-host address maps:
// `<host-id> <a.b.c.d>:<port>` lines, the bare-port loopback shorthand, and
// `#` comments must round-trip through ToText/FromText, and parse errors must
// name the offending line without discarding entries merged so far.
TEST(PeerAddressMapText, RoundTripShorthandAndErrors) {
  PeerAddressMap m;
  std::string err;
  ASSERT_TRUE(m.FromText("# deployment map\n"
                         "0 10.1.2.3:9000\n"
                         "1 9001\n"  // loopback shorthand
                         "\n"
                         "7 10.1.2.4:9000  # trailing comment\n",
                         &err))
      << err;
  ASSERT_EQ(m.size(), 3u);
  ASSERT_TRUE(m.Contains(HostId(0)));
  EXPECT_EQ(m.Find(HostId(0))->ToString(), "10.1.2.3:9000");
  EXPECT_EQ(*m.Find(HostId(1)), PeerEndpoint::Loopback(9001));
  EXPECT_EQ(m.Find(HostId(7))->ToString(), "10.1.2.4:9000");

  // Round trip: text -> map -> text -> map preserves every entry.
  PeerAddressMap again;
  ASSERT_TRUE(again.FromText(m.ToText(), &err)) << err;
  EXPECT_EQ(again.size(), m.size());
  for (const auto& [host, ep] : m.entries()) {
    const PeerEndpoint* found = again.Find(HostId(host));
    ASSERT_NE(found, nullptr) << "host " << host << " lost in round trip";
    EXPECT_EQ(*found, ep);
  }

  // A malformed line is reported by content, and earlier lines still merged.
  PeerAddressMap partial;
  EXPECT_FALSE(partial.FromText("3 9003\nbogus line here\n", &err));
  EXPECT_NE(err.find("bogus"), std::string::npos) << err;
  EXPECT_TRUE(partial.Contains(HostId(3)));

  // FromText merges (last write wins) and bumps the version on real change.
  const uint64_t v = m.version();
  ASSERT_TRUE(m.FromText("1 10.9.9.9:4242\n", &err)) << err;
  EXPECT_GT(m.version(), v);
  EXPECT_EQ(m.Find(HostId(1))->ToString(), "10.9.9.9:4242");
}

}  // namespace
}  // namespace fuse

#else
// Non-Linux: the datagram fabric is not built; keep the binary linkable.
TEST(DatagramSemantics, SkippedOffLinux) { GTEST_SKIP(); }
#endif  // defined(__linux__)
