// Group liveness fast-path tests (maintained link digests, one sweep timer
// per node with per-link deadlines) and the GroupService facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "fuse/fuse_id.h"
#include "fuse/fuse_node.h"
#include "fuzz/fault_schedule.h"
#include "fuzz/fuzz_runner.h"
#include "overlay/skipnet_node.h"
#include "runtime/sim_cluster.h"
#include "service/group_service.h"

namespace fuse {
namespace {

ClusterConfig FastPathConfig(int n, uint64_t seed) {
  ClusterConfig cfg;
  cfg.num_nodes = n;
  cfg.seed = seed;
  cfg.topology.num_as = 60;
  cfg.cost = CostModel::Simulator();
  return cfg;
}

FuseId CreateGroupSync(SimCluster& cluster, size_t root, const std::vector<size_t>& members,
                       Status* status_out) {
  FuseId id;
  bool done = false;
  Status status;
  cluster.node(root).fuse()->CreateGroup(cluster.RefsOf(members),
                                         [&](const Status& s, FuseId gid) {
                                           status = s;
                                           id = gid;
                                           done = true;
                                         });
  cluster.sim().RunUntilCondition([&] { return done; },
                                  cluster.sim().Now() + Duration::Minutes(3));
  EXPECT_TRUE(done) << "CreateGroup callback never fired";
  if (status_out != nullptr) {
    *status_out = status;
  }
  return id;
}

void ExpectLinkIndexVerifies(SimCluster& cluster) {
  for (size_t i = 0; i < cluster.size(); ++i) {
    if (cluster.IsUp(i)) {
      EXPECT_TRUE(cluster.node(i).fuse()->DebugVerifyLinkIndex()) << "node " << i;
    }
  }
}

// Oracle test for the link index and its incremental digests: after
// arbitrary interleavings of group creation, explicit signals, crashes, and
// repair traffic, every node's per-peer link tables must agree with its
// groups' link lists in both directions, and every maintained digest must
// equal a from-scratch recompute of XOR(SHA-1(id)) over the peer's table.
TEST(IncrementalDigestTest, MatchesRecomputeUnderRandomChurn) {
  SimCluster cluster(FastPathConfig(12, 501));
  cluster.Build();
  Rng rng(0xd1685u);
  std::vector<FuseId> live;
  for (int round = 0; round < 30; ++round) {
    const int op = static_cast<int>(rng.UniformInt(0, 3));
    if (op <= 1 || live.empty()) {
      const size_t size = static_cast<size_t>(rng.UniformInt(2, 4));
      const auto members = cluster.PickLiveNodes(size);
      Status status;
      const FuseId id = CreateGroupSync(cluster, members[0], members, &status);
      if (status.ok()) {
        live.push_back(id);
      }
    } else {
      const size_t pick = static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
      const FuseId id = live[pick];
      live.erase(live.begin() + static_cast<long>(pick));
      const auto signalers = cluster.PickLiveNodes(1);
      cluster.node(signalers[0]).fuse()->SignalFailure(id);
    }
    cluster.sim().RunFor(Duration::Seconds(5));
    ExpectLinkIndexVerifies(cluster);
  }
  // A crash exercises the teardown + repair paths' index maintenance.
  cluster.Crash(3);
  cluster.sim().RunFor(Duration::Minutes(5));
  ExpectLinkIndexVerifies(cluster);
}

// The fault-schedule oracle stays green on the sweep's detection timing.
TEST(CoalescedTimersTest, FuzzVerdictsStayGreen) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const FaultSchedule s = GenerateSchedule(seed);
    const FuzzRunResult r = RunSchedule(s);
    EXPECT_TRUE(r.ok()) << "seed " << seed << ": " << r.log_line;
  }
}

// The coalescing claim itself: armed FUSE timers stay O(nodes) no matter how
// many groups exist, and a real crash is still detected by every surviving
// member exactly once.
TEST(CoalescedTimersTest, ArmedTimersStayFlatAndCrashIsDetected) {
  SimCluster cluster(FastPathConfig(16, 502));
  cluster.Build();

  struct Group {
    FuseId id;
    std::vector<size_t> members;
  };
  std::vector<Group> groups;
  for (int g = 0; g < 60; ++g) {
    const auto members = cluster.PickLiveNodes(3);
    Status status;
    const FuseId id = CreateGroupSync(cluster, members[0], members, &status);
    ASSERT_TRUE(status.ok());
    groups.push_back({id, members});
  }
  cluster.sim().RunFor(Duration::Minutes(2));

  size_t armed = 0;
  size_t live_groups = 0;
  for (size_t i = 0; i < cluster.size(); ++i) {
    armed += cluster.node(i).fuse()->CountArmedGroupTimers();
    live_groups += cluster.node(i).fuse()->NumLiveGroups();
  }
  // 60 groups x 3 members (plus delegates) hold hundreds of group records;
  // armed timers are at most the one sweep timer per node plus transient
  // repair state.
  EXPECT_GE(live_groups, 180u);
  EXPECT_LE(armed, 2 * cluster.size()) << "timers not coalesced";

  // A member can sit in several affected groups, so firings are counted per
  // (group, member) pair: exactly one notification for each.
  const size_t victim = groups[0].members[1];
  std::map<std::pair<size_t, size_t>, int> fired;
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    const Group& g = groups[gi];
    bool affected = false;
    for (size_t m : g.members) {
      affected = affected || m == victim;
    }
    if (!affected) {
      continue;
    }
    for (size_t m : g.members) {
      if (m == victim) {
        continue;
      }
      cluster.node(m).fuse()->RegisterFailureHandler(
          g.id, [&fired, gi, m](FuseId) { fired[{gi, m}]++; });
    }
  }
  ASSERT_FALSE(fired.empty() && groups.empty());
  cluster.Crash(victim);
  cluster.sim().RunFor(Duration::Minutes(8));
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    const Group& g = groups[gi];
    bool affected = false;
    for (size_t m : g.members) {
      affected = affected || m == victim;
    }
    for (size_t m : g.members) {
      if (!affected || m == victim) {
        continue;
      }
      EXPECT_EQ((fired[{gi, m}]), 1) << "group " << gi << " member " << m;
    }
  }
  // Detection tore links down through the sweep, soft notifications and
  // repair; the surviving tables and group link lists still agree.
  ExpectLinkIndexVerifies(cluster);
}

// After every group is gone the sweep disarms itself: a node with no
// monitored links holds zero armed FUSE timers.
TEST(CoalescedTimersTest, SweepDisarmsWhenIdle) {
  SimCluster cluster(FastPathConfig(10, 503));
  cluster.Build();
  std::vector<FuseId> ids;
  std::vector<std::vector<size_t>> member_sets;
  for (int g = 0; g < 10; ++g) {
    const auto members = cluster.PickLiveNodes(2);
    Status status;
    const FuseId id = CreateGroupSync(cluster, members[0], members, &status);
    ASSERT_TRUE(status.ok());
    ids.push_back(id);
    member_sets.push_back(members);
  }
  cluster.sim().RunFor(Duration::Minutes(1));
  for (size_t g = 0; g < ids.size(); ++g) {
    cluster.node(member_sets[g][0]).fuse()->SignalFailure(ids[g]);
  }
  // Long enough for every teardown to propagate and the armed sweeps to fire
  // once into empty peer tables.
  cluster.sim().RunFor(Duration::Minutes(5));
  for (size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_EQ(cluster.node(i).fuse()->NumLiveGroups(), 0u) << "node " << i;
    EXPECT_EQ(cluster.node(i).fuse()->CountArmedGroupTimers(), 0u) << "node " << i;
  }
}

// True if `node` monitors a link to `peer` for group `id` (read from the
// links=[...] field of DebugGroupState).
bool HoldsLink(const FuseNode& node, FuseId id, HostId peer) {
  const std::string s = node.DebugGroupState(id);
  const size_t open = s.find("links=[");
  if (open == std::string::npos) {
    return false;
  }
  const size_t from = open + 7;
  std::istringstream links(s.substr(from, s.find(']', from) - from));
  uint64_t value = 0;
  while (links >> value) {
    if (value == peer.value) {
      return true;
    }
  }
  return false;
}

// Installs are not confirmations. Node A holds a link to P that P does not
// (a phantom) while fresh installs keep arriving from P on the same
// neighbor. The phantom must die at its own deadline: its install plus
// link_liveness_timeout, pushed back at most by the one reconcile agreement
// each side makes within a ping round of the mismatch. Reconciles are held
// off (long interval and grace) so only the sweep can remove it.
TEST(CoalescedTimersTest, PhantomLinkDiesAtItsDeadlineDespiteFreshInstalls) {
  ClusterConfig cfg = FastPathConfig(2, 506);
  cfg.overlay.ping_period = Duration::Seconds(5);
  cfg.overlay.ping_timeout = Duration::Seconds(2);
  cfg.fuse.reconcile_min_interval = Duration::Minutes(600);
  cfg.fuse.grace_period = Duration::Minutes(600);
  SimCluster cluster(cfg);
  cluster.Build();
  const size_t a = 0;
  const size_t p = 1;
  const NodeRef a_ref = cluster.RefsOf({a})[0];
  const NodeRef p_ref = cluster.RefsOf({p})[0];

  // The phantom: a singleton group at A, plus an InstallChecking for it that
  // P routes to A without holding any state of its own.
  Status status;
  const FuseId phantom = CreateGroupSync(cluster, a, {a}, &status);
  ASSERT_TRUE(status.ok());
  Writer w;
  WriteFuseId(w, phantom);
  w.PutU32(0);
  WriteNodeRef(w, p_ref);
  cluster.node(p).overlay()->RouteByName(a_ref.name, FuseNode::kRoutedTag, w.Take(),
                                         MsgCategory::kFuseInstallChecking);
  cluster.sim().RunFor(Duration::Seconds(1));
  const TimePoint installed = cluster.sim().Now();
  ASSERT_TRUE(HoldsLink(*cluster.node(a).fuse(), phantom, p_ref.host));
  ASSERT_FALSE(cluster.node(p).fuse()->HasLiveGroup(phantom));

  // Fresh installs from P every 10 s, well inside the timeout.
  const Duration timeout = cfg.fuse.link_liveness_timeout;
  const TimePoint check_alive = installed + timeout - Duration::Seconds(2);
  const TimePoint check_gone = installed + timeout + cfg.overlay.ping_period + Duration::Seconds(5);
  bool alive_before_deadline = false;
  while (cluster.sim().Now() < check_gone) {
    CreateGroupSync(cluster, a, {a, p}, nullptr);
    const TimePoint next = std::min(cluster.sim().Now() + Duration::Seconds(10), check_gone);
    if (cluster.sim().Now() < check_alive && next >= check_alive) {
      cluster.sim().RunUntil(check_alive);
      alive_before_deadline = HoldsLink(*cluster.node(a).fuse(), phantom, p_ref.host);
    }
    cluster.sim().RunUntil(next);
  }
  EXPECT_TRUE(alive_before_deadline) << "phantom link torn down before its deadline";
  EXPECT_FALSE(HoldsLink(*cluster.node(a).fuse(), phantom, p_ref.host))
      << "phantom link outlived its deadline: " << cluster.node(a).fuse()->DebugGroupState(phantom);
}

TEST(GroupServiceTest, CreateDrainWatchSignalRoundTrip) {
  SimCluster cluster(FastPathConfig(8, 504));
  cluster.Build();
  GroupServiceOptions opts;
  opts.max_inflight_creates = 64;
  GroupService svc(cluster, opts);

  for (int g = 0; g < 200; ++g) {
    svc.Create(static_cast<size_t>(g % 8),
               {static_cast<size_t>(g % 8), static_cast<size_t>((g + 1 + g / 8) % 8)});
  }
  ASSERT_TRUE(svc.Drain(Duration::Minutes(10)));
  EXPECT_EQ(svc.counters().creates_ok, 200u);
  EXPECT_EQ(svc.counters().creates_failed, 0u);
  EXPECT_EQ(svc.NumLive(), 200u);

  // Signal a quarter of them from their roots; each watched member hears
  // exactly once and the record disappears from the live view.
  std::vector<FuseId> doomed;
  svc.ForEachLive([&](FuseId id, const GroupService::Record&) {
    if (doomed.size() < 50) {
      doomed.push_back(id);
    }
  });
  int fires = 0;
  for (const FuseId& id : doomed) {
    const GroupService::Record* rec = svc.FindLive(id);
    ASSERT_NE(rec, nullptr);
    svc.Watch(rec->members[1], id, [&fires](FuseId) { ++fires; });
    svc.Signal(rec->root, id);
  }
  cluster.Await([&] { return fires >= 50; }, Duration::Minutes(5));
  EXPECT_EQ(fires, 50);
  EXPECT_EQ(svc.counters().notifications, 50u);
  EXPECT_EQ(svc.NumLive(), 150u);
  for (const FuseId& id : doomed) {
    EXPECT_EQ(svc.FindLive(id), nullptr);
  }
}

TEST(GroupServiceTest, CreateAgainstCrashedMemberCountsAsFailed) {
  SimCluster cluster(FastPathConfig(8, 505));
  cluster.Build();
  cluster.Crash(5);
  GroupService svc(cluster);
  svc.Create(0, {0, 5});
  svc.Create(1, {1, 2});
  ASSERT_TRUE(svc.Drain(Duration::Minutes(10)));
  EXPECT_EQ(svc.counters().creates_ok, 1u);
  EXPECT_EQ(svc.counters().creates_failed, 1u);
  EXPECT_EQ(svc.NumLive(), 1u);
}

}  // namespace
}  // namespace fuse
