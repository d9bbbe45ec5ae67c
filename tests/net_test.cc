// Tests for the topology generator, network model, and fault injector.
// The topology calibration test pins the route statistics the paper's
// evaluation depends on (sections 7.1, 7.6): hop counts 2-43 with median ~15
// and a median RTT near 130 ms with a heavy tail.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <queue>

#include "common/stats.h"
#include "net/fault_injector.h"
#include "net/network.h"
#include "net/topology.h"

namespace fuse {
namespace {

TEST(TopologyTest, GeneratesConnectedGraph) {
  Rng rng(1);
  TopologyConfig cfg;
  cfg.num_as = 100;
  const Topology topo = Topology::Generate(cfg, rng);
  EXPECT_EQ(topo.NumAs(), 100u);
  EXPECT_GT(topo.NumRouters(), 100u);
  // Any two routers have a finite path (FUSE_CHECK inside would abort
  // otherwise).
  Rng pick(2);
  for (int i = 0; i < 200; ++i) {
    const RouterId a = topo.RandomRouter(pick);
    const RouterId b = topo.RandomRouter(pick);
    const auto p = topo.GetPath(a, b);
    EXPECT_GT(p.latency.ToMicros(), 0);
    EXPECT_GE(p.hops, 1u);
  }
}

TEST(TopologyTest, SameRouterIsLocalHop) {
  Rng rng(1);
  TopologyConfig cfg;
  cfg.num_as = 20;
  const Topology topo = Topology::Generate(cfg, rng);
  const RouterId r(0);
  const auto p = topo.GetPath(r, r);
  EXPECT_EQ(p.hops, 1u);
  EXPECT_LT(p.latency.ToMicros(), 1000);
}

TEST(TopologyTest, PathIsSymmetric) {
  Rng rng(3);
  TopologyConfig cfg;
  cfg.num_as = 50;
  const Topology topo = Topology::Generate(cfg, rng);
  Rng pick(4);
  for (int i = 0; i < 50; ++i) {
    const RouterId a = topo.RandomRouter(pick);
    const RouterId b = topo.RandomRouter(pick);
    const auto ab = topo.GetPath(a, b);
    const auto ba = topo.GetPath(b, a);
    EXPECT_EQ(ab.latency.ToMicros(), ba.latency.ToMicros());
    EXPECT_EQ(ab.hops, ba.hops);
  }
}

// Reference for the on-demand route rows: Dijkstra from every AS over the
// topology's own AS links, filling whole num_as x num_as tables up front.
struct AllPairs {
  std::vector<uint32_t> lat_us;
  std::vector<uint16_t> hops;
};

AllPairs ComputeAllPairs(const Topology& topo) {
  const size_t n = topo.NumAs();
  AllPairs ref;
  ref.lat_us.assign(n * n, std::numeric_limits<uint32_t>::max());
  ref.hops.assign(n * n, 0);
  using HeapEntry = std::pair<uint64_t, uint32_t>;  // (dist, as)
  std::vector<uint64_t> dist(n);
  std::vector<uint16_t> hops(n);
  for (uint32_t src = 0; src < n; ++src) {
    std::fill(dist.begin(), dist.end(), std::numeric_limits<uint64_t>::max());
    std::fill(hops.begin(), hops.end(), 0);
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap;
    dist[src] = 0;
    heap.emplace(0, src);
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (d > dist[u]) {
        continue;
      }
      for (const auto& [v, w] : topo.AsLinks(u)) {
        const uint64_t nd = d + w;
        if (nd < dist[v]) {
          dist[v] = nd;
          hops[v] = static_cast<uint16_t>(hops[u] + 1);
          heap.emplace(nd, v);
        }
      }
    }
    for (uint32_t dst = 0; dst < n; ++dst) {
      if (dist[dst] != std::numeric_limits<uint64_t>::max()) {
        ref.lat_us[src * n + dst] = static_cast<uint32_t>(dist[dst]);
        ref.hops[src * n + dst] = hops[dst];
      }
    }
  }
  return ref;
}

// One router per AS (the first the generator placed there).
std::vector<RouterId> RouterPerAs(const Topology& topo) {
  std::vector<RouterId> first(topo.NumAs());
  std::vector<bool> seen(topo.NumAs(), false);
  for (uint64_t r = 0; r < topo.NumRouters(); ++r) {
    const uint32_t as = topo.router(RouterId(r)).as_index;
    if (!seen[as]) {
      seen[as] = true;
      first[as] = RouterId(r);
    }
  }
  return first;
}

// Route rows computed on first use give exactly the all-pairs answers, and
// a cluster on k routers computes at most k rows.
TEST(TopologyTest, OnDemandRoutesMatchAllPairs) {
  for (const int num_as : {20, 100, 600}) {
    for (const uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(testing::Message() << "num_as=" << num_as << " seed=" << seed);
      Rng rng(seed);
      TopologyConfig cfg;
      cfg.num_as = num_as;
      const Topology topo = Topology::Generate(cfg, rng);
      EXPECT_EQ(topo.DebugRowsComputed(), 0u);

      // Resolving paths from k routers touches at most k source ASs.
      constexpr int kRouters = 7;
      Rng pick(seed + 100);
      std::vector<RouterId> sources;
      std::vector<bool> source_as(topo.NumAs(), false);
      size_t distinct_as = 0;
      for (int i = 0; i < kRouters; ++i) {
        sources.push_back(topo.RandomRouter(pick));
        const uint32_t as = topo.router(sources.back()).as_index;
        distinct_as += source_as[as] ? 0 : 1;
        source_as[as] = true;
      }
      for (const RouterId a : sources) {
        for (int j = 0; j < 50; ++j) {
          topo.GetPath(a, topo.RandomRouter(pick));
        }
      }
      EXPECT_LE(topo.DebugRowsComputed(), static_cast<size_t>(kRouters));
      EXPECT_EQ(topo.DebugRowsComputed(), distinct_as);

      const AllPairs ref = ComputeAllPairs(topo);
      const std::vector<RouterId> rep = RouterPerAs(topo);
      const size_t n = topo.NumAs();
      for (uint32_t a = 0; a < n; ++a) {
        const Topology::Router& ra = topo.router(rep[a]);
        for (uint32_t b = 0; b < n; ++b) {
          if (a == b) {
            continue;
          }
          const size_t idx = static_cast<size_t>(a) * n + b;
          const Topology::Router& rb = topo.router(rep[b]);
          const Topology::PathInfo p = topo.GetPath(rep[a], rep[b]);
          ASSERT_EQ(p.latency.ToMicros(),
                    static_cast<int64_t>(ra.to_core_lat_us) + ref.lat_us[idx] + rb.to_core_lat_us)
              << a << "->" << b;
          ASSERT_EQ(p.hops, static_cast<uint32_t>(ra.depth + ref.hops[idx] + rb.depth))
              << a << "->" << b;
        }
      }
      EXPECT_EQ(topo.DebugRowsComputed(), n);
    }
  }
}

// Calibration against the paper's reported route statistics.
TEST(TopologyTest, CalibrationMatchesPaperRouteStats) {
  Rng rng(7);
  const TopologyConfig cfg;  // defaults are the calibrated values
  Topology topo = Topology::Generate(cfg, rng);
  SimNetwork net{std::move(topo)};
  Rng pick(8);
  std::vector<HostId> hosts;
  for (int i = 0; i < 400; ++i) {
    hosts.push_back(net.AddHost(pick));
  }
  Summary rtt_ms;
  Summary hops;
  for (int i = 0; i < 3000; ++i) {
    const HostId a = hosts[pick.UniformInt(0, 399)];
    const HostId b = hosts[pick.UniformInt(0, 399)];
    if (a == b) {
      continue;
    }
    const auto p = net.GetPath(a, b);
    rtt_ms.Add(2 * p.latency.ToMillisF());
    hops.Add(p.hops);
  }
  // Paper: median RTT ~130 ms (Figure 6), heavy tail from T3 links.
  EXPECT_GT(rtt_ms.Median(), 100.0);
  EXPECT_LT(rtt_ms.Median(), 170.0);
  EXPECT_GT(rtt_ms.Percentile(99), 400.0);  // heavy tail present
  // Paper: route hops 2-43, median 15 (section 7.6).
  EXPECT_GT(hops.Median(), 11.0);
  EXPECT_LT(hops.Median(), 19.0);
  EXPECT_GE(hops.Min(), 1.0);  // same-router pairs can be 1 hop
  EXPECT_LT(hops.Max(), 60.0);
}

TEST(NetworkTest, RouteLossComposition) {
  Rng rng(9);
  TopologyConfig cfg;
  cfg.num_as = 50;
  SimNetwork net{Topology::Generate(cfg, rng)};
  Rng pick(10);
  const HostId a = net.AddHost(pick);
  const HostId b = net.AddHost(pick);
  EXPECT_DOUBLE_EQ(net.RouteSuccessProbability(a, b), 1.0);
  net.SetPerLinkLossRate(0.01);
  const auto path = net.GetPath(a, b);
  const double expect = std::pow(0.99, path.hops);
  EXPECT_NEAR(net.RouteSuccessProbability(a, b), expect, 1e-12);
}

TEST(FaultInjectorTest, HostDown) {
  FaultInjector f;
  const HostId a(1), b(2);
  EXPECT_FALSE(f.IsBlocked(a, b));
  f.SetHostDown(a, true);
  EXPECT_TRUE(f.IsBlocked(a, b));
  EXPECT_TRUE(f.IsBlocked(b, a));
  f.SetHostDown(a, false);
  EXPECT_FALSE(f.IsBlocked(a, b));
}

TEST(FaultInjectorTest, BlockedPairIsSymmetricAndIntransitive) {
  FaultInjector f;
  const HostId a(1), b(2), c(3);
  f.BlockPair(a, c);
  // The intransitive scenario from section 3.4: A-B fine, B-C fine, A-C not.
  EXPECT_FALSE(f.IsBlocked(a, b));
  EXPECT_FALSE(f.IsBlocked(b, c));
  EXPECT_TRUE(f.IsBlocked(a, c));
  EXPECT_TRUE(f.IsBlocked(c, a));
  f.UnblockPair(c, a);  // order does not matter
  EXPECT_FALSE(f.IsBlocked(a, c));
}

TEST(FaultInjectorTest, Partition) {
  FaultInjector f;
  const HostId a(1), b(2), c(3), d(4);
  f.PartitionHosts({a, b});
  EXPECT_FALSE(f.IsBlocked(a, b));
  EXPECT_TRUE(f.IsBlocked(a, c));
  EXPECT_TRUE(f.IsBlocked(b, d));
  EXPECT_FALSE(f.IsBlocked(c, d));
  f.ClearPartitions();
  EXPECT_FALSE(f.IsBlocked(a, c));
}

TEST(FaultInjectorTest, LayeredPartitionsIsolateEveryGroup) {
  FaultInjector f;
  const HostId a(1), b(2), c(3), d(4), e(5), g(6);
  // Two partitions layered on one rule set: {a,b} and {c,d}. Each group can
  // talk internally; nothing crosses a boundary — including into the
  // unassigned remainder {e,g}, which forms its own implicit side.
  f.PartitionHosts({a, b});
  f.PartitionHosts({c, d});
  EXPECT_FALSE(f.IsBlocked(a, b));
  EXPECT_FALSE(f.IsBlocked(c, d));
  EXPECT_FALSE(f.IsBlocked(e, g));
  EXPECT_TRUE(f.IsBlocked(a, c));
  EXPECT_TRUE(f.IsBlocked(b, d));
  EXPECT_TRUE(f.IsBlocked(a, e));
  EXPECT_TRUE(f.IsBlocked(d, g));
  f.ClearPartitions();
  EXPECT_FALSE(f.IsBlocked(a, c));
  EXPECT_FALSE(f.IsBlocked(d, g));
}

TEST(FaultInjectorTest, RepartitionMovesHostToItsNewGroup) {
  FaultInjector f;
  const HostId a(1), b(2), c(3);
  f.PartitionHosts({a, b});
  EXPECT_FALSE(f.IsBlocked(a, b));
  // A host appears in at most one group at a time: re-partitioning b moves
  // it out of {a,b} and into the new group with c.
  f.PartitionHosts({b, c});
  EXPECT_TRUE(f.IsBlocked(a, b));
  EXPECT_FALSE(f.IsBlocked(b, c));
  EXPECT_TRUE(f.IsBlocked(a, c));
}

TEST(FaultInjectorTest, BlockedPairLayersOverPartition) {
  FaultInjector f;
  const HostId a(1), b(2), c(3);
  f.PartitionHosts({a, b, c});
  EXPECT_FALSE(f.IsBlocked(a, b));
  // An intransitive pair failure inside a partition group still blocks that
  // pair (the rules are independent layers, not a single verdict).
  f.BlockPair(a, b);
  EXPECT_TRUE(f.IsBlocked(a, b));
  EXPECT_FALSE(f.IsBlocked(a, c));
  EXPECT_FALSE(f.IsBlocked(b, c));
  f.UnblockPair(a, b);
  EXPECT_FALSE(f.IsBlocked(a, b));
  // And the other way around: healing the partition does not unblock pairs.
  f.BlockPair(a, c);
  f.ClearPartitions();
  EXPECT_TRUE(f.IsBlocked(a, c));
  EXPECT_FALSE(f.IsBlocked(a, b));
  // Down-host rules also survive partition healing.
  f.SetHostDown(b, true);
  EXPECT_TRUE(f.IsBlocked(a, b));
  f.SetHostDown(b, false);
  EXPECT_FALSE(f.IsBlocked(a, b));
}

TEST(FaultInjectorTest, OneWayBlockIsDirectional) {
  FaultInjector f;
  const HostId a(1), b(2);
  f.BlockOneWay(a, b);
  // The asymmetric-connectivity case (Halpern/Ricciardi): a cannot reach b,
  // but b still reaches a.
  EXPECT_TRUE(f.IsBlocked(a, b));
  EXPECT_FALSE(f.IsBlocked(b, a));
  f.UnblockOneWay(a, b);
  EXPECT_FALSE(f.IsBlocked(a, b));
}

TEST(FaultInjectorTest, LinkAndHostDelaysCompose) {
  FaultInjector f;
  const HostId a(1), b(2), c(3);
  EXPECT_TRUE(f.ExtraDelay(a, b).IsZero());
  f.SetLinkDelay(a, b, Duration::Millis(100));
  EXPECT_EQ(f.ExtraDelay(a, b), Duration::Millis(100));
  EXPECT_TRUE(f.ExtraDelay(b, a).IsZero());  // directional
  // A slow-but-alive host taxes every message touching it, on top of links.
  f.SetHostDelay(b, Duration::Millis(50));
  EXPECT_EQ(f.ExtraDelay(a, b), Duration::Millis(150));
  EXPECT_EQ(f.ExtraDelay(b, a), Duration::Millis(50));
  EXPECT_EQ(f.ExtraDelay(c, b), Duration::Millis(50));
  EXPECT_TRUE(f.ExtraDelay(a, c).IsZero());
  f.SetLinkDelay(a, b, Duration::Zero());
  f.SetHostDelay(b, Duration::Zero());
  EXPECT_TRUE(f.ExtraDelay(a, b).IsZero());
}

TEST(FaultInjectorTest, ClockRateDefaultsToNominal) {
  FaultInjector f;
  const HostId a(1), b(2);
  EXPECT_DOUBLE_EQ(f.ClockRate(a), 1.0);
  f.SetClockRate(a, 2.0);
  EXPECT_DOUBLE_EQ(f.ClockRate(a), 2.0);
  EXPECT_DOUBLE_EQ(f.ClockRate(b), 1.0);
  f.SetClockRate(a, 1.0);  // 1.0 clears the rule
  EXPECT_DOUBLE_EQ(f.ClockRate(a), 1.0);
}

TEST(FaultInjectorTest, LossBurstsAreTimedAndCompose) {
  FaultInjector f;
  const HostId a(1), b(2), c(3);
  EXPECT_FALSE(f.HasLossBursts());
  f.AddLossBurst(a, TimePoint::FromMicros(100), TimePoint::FromMicros(200), 0.5);
  EXPECT_TRUE(f.HasLossBursts());
  // Outside the window, or not touching the host: no extra loss.
  EXPECT_DOUBLE_EQ(f.BurstLossProbability(a, b, TimePoint::FromMicros(50)), 0.0);
  EXPECT_DOUBLE_EQ(f.BurstLossProbability(a, b, TimePoint::FromMicros(200)), 0.0);
  EXPECT_DOUBLE_EQ(f.BurstLossProbability(b, c, TimePoint::FromMicros(150)), 0.0);
  // Inside, touching the host in either direction.
  EXPECT_DOUBLE_EQ(f.BurstLossProbability(a, b, TimePoint::FromMicros(150)), 0.5);
  EXPECT_DOUBLE_EQ(f.BurstLossProbability(b, a, TimePoint::FromMicros(150)), 0.5);
  // An all-traffic burst (invalid host) overlapping composes independently:
  // survive = 0.5 * 0.5.
  f.AddLossBurst(HostId(), TimePoint::FromMicros(120), TimePoint::FromMicros(180), 0.5);
  EXPECT_DOUBLE_EQ(f.BurstLossProbability(a, b, TimePoint::FromMicros(150)), 0.75);
  EXPECT_DOUBLE_EQ(f.BurstLossProbability(b, c, TimePoint::FromMicros(150)), 0.5);
  f.ClearLossBursts();
  EXPECT_FALSE(f.HasLossBursts());
  EXPECT_DOUBLE_EQ(f.BurstLossProbability(a, b, TimePoint::FromMicros(150)), 0.0);
}

TEST(FaultInjectorTest, ReorderJitterTakesTheLargestApplicableBound) {
  FaultInjector f;
  const HostId a(1), b(2), c(3);
  EXPECT_TRUE(f.ReorderJitterFor(a, b).IsZero());
  f.SetReorderJitter(a, Duration::Millis(20));
  EXPECT_EQ(f.ReorderJitterFor(a, b), Duration::Millis(20));
  EXPECT_EQ(f.ReorderJitterFor(c, a), Duration::Millis(20));
  EXPECT_TRUE(f.ReorderJitterFor(b, c).IsZero());
  // Global jitter applies to everything; per-host maxima win when larger.
  f.SetReorderJitter(HostId(), Duration::Millis(5));
  EXPECT_EQ(f.ReorderJitterFor(b, c), Duration::Millis(5));
  EXPECT_EQ(f.ReorderJitterFor(a, b), Duration::Millis(20));
  f.SetReorderJitter(a, Duration::Zero());
  f.SetReorderJitter(HostId(), Duration::Zero());
  EXPECT_TRUE(f.ReorderJitterFor(a, b).IsZero());
}

// The process backend replicates rules to workers via EncodeTo/DecodeFrom;
// a kind that does not survive the round trip would silently replay a
// different schedule in every worker. Every rule kind goes through the wire
// and must come back with identical verdicts — and identical re-encoding.
TEST(FaultInjectorTest, EncodeDecodeRoundTripsEveryRuleKind) {
  FaultInjector f;
  const HostId a(1), b(2), c(3), d(4), e(5);
  f.SetHostDown(e, true);
  f.BlockPair(a, c);
  f.BlockOneWay(b, a);
  f.PartitionHosts({a, b});
  f.PartitionHosts({c, d});
  f.SetLinkDelay(a, b, Duration::Millis(250));
  f.SetHostDelay(c, Duration::Millis(40));
  f.SetClockRate(b, 1.75);
  f.AddLossBurst(a, TimePoint::FromMicros(1000), TimePoint::FromMicros(9000), 0.3);
  f.AddLossBurst(HostId(), TimePoint::FromMicros(2000), TimePoint::FromMicros(3000), 0.9);
  f.SetReorderJitter(d, Duration::Millis(15));
  f.SetReorderJitter(HostId(), Duration::Millis(2));

  Writer w;
  f.EncodeTo(w);
  const std::vector<uint8_t> wire = w.Take();
  FaultInjector g;
  Reader r(wire);
  ASSERT_TRUE(g.DecodeFrom(r));
  ASSERT_TRUE(r.Done()) << "decoder must consume the whole encoding";

  // Verdict equality across every kind.
  EXPECT_TRUE(g.IsHostDown(e));
  EXPECT_TRUE(g.IsBlocked(a, c));
  EXPECT_TRUE(g.IsBlocked(b, a));     // one-way
  EXPECT_FALSE(g.IsBlocked(a, b));    // same partition group, no other rule
  EXPECT_TRUE(g.IsBlocked(a, d));     // cross-partition
  EXPECT_EQ(g.ExtraDelay(a, b), Duration::Millis(250));
  EXPECT_EQ(g.ExtraDelay(b, c), Duration::Millis(40));
  EXPECT_DOUBLE_EQ(g.ClockRate(b), 1.75);
  EXPECT_DOUBLE_EQ(g.ClockRate(a), 1.0);
  EXPECT_DOUBLE_EQ(g.BurstLossProbability(a, b, TimePoint::FromMicros(1500)), 0.3);
  EXPECT_DOUBLE_EQ(g.BurstLossProbability(c, d, TimePoint::FromMicros(2500)), 0.9);
  EXPECT_EQ(g.ReorderJitterFor(c, d), Duration::Millis(15));
  EXPECT_EQ(g.ReorderJitterFor(a, b), Duration::Millis(2));

  // Re-encoding the decoded rules reproduces the exact wire bytes, so rules
  // can be forwarded worker-to-worker without drift.
  Writer w2;
  g.EncodeTo(w2);
  EXPECT_EQ(w2.bytes(), wire);

  // Decoding must fully replace prior state, not merge into it.
  FaultInjector h;
  h.SetHostDown(a, true);
  h.SetClockRate(d, 3.0);
  Reader r2(wire);
  ASSERT_TRUE(h.DecodeFrom(r2));
  EXPECT_FALSE(h.IsHostDown(a));
  EXPECT_DOUBLE_EQ(h.ClockRate(d), 1.0);
}

TEST(NetworkTest, CoLocatedHostsShareRouter) {
  Rng rng(11);
  TopologyConfig cfg;
  cfg.num_as = 30;
  SimNetwork net{Topology::Generate(cfg, rng)};
  const RouterId r = net.topology().RandomRouter(rng);
  const HostId a = net.AddHostAt(r);
  const HostId b = net.AddHostAt(r);
  EXPECT_EQ(net.RouterOf(a), net.RouterOf(b));
  const auto p = net.GetPath(a, b);
  EXPECT_EQ(p.hops, 1u);
}

}  // namespace
}  // namespace fuse
