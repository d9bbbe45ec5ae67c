// Integration tests for FUSE group semantics (paper sections 3 and 6):
// distributed one-way agreement under crashes, partitions, intransitive
// connectivity failures, and delegate failures.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "fuse/fuse_id.h"
#include "overlay/skipnet_node.h"
#include "runtime/sim_cluster.h"

namespace fuse {
namespace {

ClusterConfig SmallConfig(int n, uint64_t seed) {
  ClusterConfig cfg;
  cfg.num_nodes = n;
  cfg.seed = seed;
  cfg.topology.num_as = 60;
  cfg.cost = CostModel::Simulator();
  return cfg;
}

// Records failure notifications per node for one group.
struct Recorder {
  std::map<size_t, int> fired;          // node index -> invocation count
  std::map<size_t, TimePoint> when;

  void Watch(SimCluster& cluster, size_t i, FuseId id) {
    cluster.node(i).fuse()->RegisterFailureHandler(id, [this, &cluster, i](FuseId) {
      fired[i]++;
      when[i] = cluster.sim().Now();
    });
  }
  int TotalFirings() const {
    int total = 0;
    for (const auto& [i, n] : fired) {
      total += n;
    }
    return total;
  }
};

// Creates a group rooted at `root` with the given members; runs the sim
// until the callback fires. Returns the id; status in *status_out.
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

TEST(FuseCreateTest, SucceedsWithLiveMembers) {
  SimCluster cluster(SmallConfig(24, 101));
  cluster.Build();
  Status status;
  const auto members = cluster.PickLiveNodes(5);
  const FuseId id = CreateGroupSync(cluster, members[0], members, &status);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(id.valid());
  for (size_t m : members) {
    EXPECT_TRUE(cluster.node(m).fuse()->IsParticipant(id)) << "member " << m;
  }
}

TEST(FuseCreateTest, BlockingSemanticsLatencyIsRpcLike) {
  SimCluster cluster(SmallConfig(24, 102));
  cluster.Build();
  const auto members = cluster.PickLiveNodes(4);
  const TimePoint t0 = cluster.sim().Now();
  Status status;
  CreateGroupSync(cluster, members[0], members, &status);
  const Duration took = cluster.sim().Now() - t0;
  ASSERT_TRUE(status.ok());
  // Blocking create: one round trip to the farthest member (plus slack),
  // not a timeout-scale delay.
  EXPECT_LT(took.ToSecondsF(), 5.0);
  EXPECT_GT(took.ToMicros(), 0);
}

TEST(FuseCreateTest, FailsWhenMemberDown) {
  SimCluster cluster(SmallConfig(24, 103));
  cluster.Build();
  const auto members = cluster.PickLiveNodes(4);
  cluster.Crash(members[2]);
  Status status;
  const FuseId id = CreateGroupSync(cluster, members[0], members, &status);
  EXPECT_FALSE(status.ok());
  // No orphaned state: the live members learn of the failed creation, and a
  // handler registered afterwards fires immediately (paper 3.2).
  cluster.sim().RunFor(Duration::Minutes(3));
  for (size_t m : {members[1], members[3]}) {
    EXPECT_FALSE(cluster.node(m).fuse()->IsParticipant(id)) << "member " << m;
  }
  int fired = 0;
  cluster.node(members[1]).fuse()->RegisterFailureHandler(id, [&](FuseId) { ++fired; });
  cluster.sim().RunFor(Duration::Seconds(1));
  EXPECT_EQ(fired, 1);
}

TEST(FuseCreateTest, SingletonGroupIsImmediate) {
  SimCluster cluster(SmallConfig(8, 104));
  cluster.Build();
  Status status;
  const FuseId id = CreateGroupSync(cluster, 0, {0}, &status);
  EXPECT_TRUE(status.ok());
  EXPECT_TRUE(cluster.node(0).fuse()->IsParticipant(id));
  // Explicit signal delivers the local notification.
  int fired = 0;
  cluster.node(0).fuse()->RegisterFailureHandler(id, [&](FuseId) { ++fired; });
  cluster.node(0).fuse()->SignalFailure(id);
  cluster.sim().RunFor(Duration::Seconds(1));
  EXPECT_EQ(fired, 1);
}

TEST(FuseSignalTest, ExplicitSignalNotifiesEveryMemberExactlyOnce) {
  SimCluster cluster(SmallConfig(32, 105));
  cluster.Build();
  const auto members = cluster.PickLiveNodes(6);
  Status status;
  const FuseId id = CreateGroupSync(cluster, members[0], members, &status);
  ASSERT_TRUE(status.ok());
  Recorder rec;
  for (size_t m : members) {
    rec.Watch(cluster, m, id);
  }
  // A non-root member signals.
  cluster.node(members[3]).fuse()->SignalFailure(id);
  cluster.sim().RunFor(Duration::Minutes(3));
  for (size_t m : members) {
    EXPECT_EQ(rec.fired[m], 1) << "member " << m;
  }
  // State is gone everywhere.
  for (size_t m : members) {
    EXPECT_FALSE(cluster.node(m).fuse()->HasLiveGroup(id));
  }
}

TEST(FuseSignalTest, NotificationLatencyIsNetworkScale) {
  SimCluster cluster(SmallConfig(32, 106));
  cluster.Build();
  const auto members = cluster.PickLiveNodes(6);
  Status status;
  const FuseId id = CreateGroupSync(cluster, members[0], members, &status);
  ASSERT_TRUE(status.ok());
  Recorder rec;
  for (size_t m : members) {
    rec.Watch(cluster, m, id);
  }
  const TimePoint t0 = cluster.sim().Now();
  cluster.node(members[2]).fuse()->SignalFailure(id);
  cluster.sim().RunFor(Duration::Minutes(1));
  for (size_t m : members) {
    ASSERT_EQ(rec.fired[m], 1);
    // Paper Figure 8: signalled notifications are sub-second-ish (network
    // latency scale), far below any timeout.
    EXPECT_LT((rec.when[m] - t0).ToSecondsF(), 5.0) << "member " << m;
  }
}

TEST(FuseSignalTest, SignalOnOneGroupDoesNotAffectOthers) {
  SimCluster cluster(SmallConfig(24, 107));
  cluster.Build();
  const auto members = cluster.PickLiveNodes(4);
  Status s1, s2;
  const FuseId id1 = CreateGroupSync(cluster, members[0], members, &s1);
  const FuseId id2 = CreateGroupSync(cluster, members[0], members, &s2);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  Recorder rec1, rec2;
  for (size_t m : members) {
    rec1.Watch(cluster, m, id1);
    rec2.Watch(cluster, m, id2);
  }
  cluster.node(members[1]).fuse()->SignalFailure(id1);
  cluster.sim().RunFor(Duration::Minutes(5));
  EXPECT_EQ(rec1.TotalFirings(), static_cast<int>(members.size()));
  EXPECT_EQ(rec2.TotalFirings(), 0) << "independent group was affected";
  for (size_t m : members) {
    EXPECT_TRUE(cluster.node(m).fuse()->IsParticipant(id2));
  }
}

TEST(FuseRegisterTest, UnknownIdFiresImmediately) {
  SimCluster cluster(SmallConfig(8, 108));
  cluster.Build();
  FuseId bogus;
  bogus.hi = 123;
  bogus.lo = 456;
  int fired = 0;
  cluster.node(0).fuse()->RegisterFailureHandler(bogus, [&](FuseId) { ++fired; });
  cluster.sim().RunFor(Duration::Seconds(1));
  EXPECT_EQ(fired, 1);
}

TEST(FuseCrashTest, MemberCrashNotifiesAllLiveMembers) {
  SimCluster cluster(SmallConfig(32, 109));
  cluster.Build();
  const auto members = cluster.PickLiveNodes(5);
  Status status;
  const FuseId id = CreateGroupSync(cluster, members[0], members, &status);
  ASSERT_TRUE(status.ok());
  Recorder rec;
  for (size_t m : members) {
    rec.Watch(cluster, m, id);
  }
  const TimePoint t0 = cluster.sim().Now();
  cluster.Crash(members[4]);
  cluster.sim().RunFor(Duration::Minutes(6));
  for (size_t k = 0; k < 4; ++k) {
    const size_t m = members[k];
    EXPECT_EQ(rec.fired[m], 1) << "member " << m;
    // Paper Figure 9: ping + repair timeouts bound notification by ~4 min.
    EXPECT_LT((rec.when[m] - t0).ToSecondsF(), 300.0);
  }
}

TEST(FuseCrashTest, RootCrashNotifiesAllMembers) {
  SimCluster cluster(SmallConfig(32, 110));
  cluster.Build();
  const auto members = cluster.PickLiveNodes(5);
  Status status;
  const FuseId id = CreateGroupSync(cluster, members[0], members, &status);
  ASSERT_TRUE(status.ok());
  Recorder rec;
  for (size_t k = 1; k < members.size(); ++k) {
    rec.Watch(cluster, members[k], id);
  }
  cluster.Crash(members[0]);  // the root
  cluster.sim().RunFor(Duration::Minutes(6));
  for (size_t k = 1; k < members.size(); ++k) {
    EXPECT_EQ(rec.fired[members[k]], 1) << "member " << members[k];
  }
}

TEST(FuseCrashTest, CrashRecoveryTearsDownForgottenGroups) {
  SimCluster cluster(SmallConfig(24, 111));
  cluster.Build();
  const auto members = cluster.PickLiveNodes(4);
  Status status;
  const FuseId id = CreateGroupSync(cluster, members[0], members, &status);
  ASSERT_TRUE(status.ok());
  Recorder rec;
  for (size_t k = 0; k < 3; ++k) {
    rec.Watch(cluster, members[k], id);
  }
  // Crash and quickly restart member 3: it recovers with no stable storage,
  // so the group must still be torn down at everyone (paper 3.6).
  cluster.Crash(members[3]);
  cluster.sim().RunFor(Duration::Seconds(10));
  cluster.Restart(members[3]);
  cluster.sim().RunFor(Duration::Minutes(8));
  for (size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(rec.fired[members[k]], 1) << "member " << members[k];
  }
  EXPECT_FALSE(cluster.node(members[3]).fuse()->HasLiveGroup(id));
}

TEST(FusePartitionTest, BothSidesGetNotified) {
  SimCluster cluster(SmallConfig(32, 112));
  cluster.Build();
  const auto members = cluster.PickLiveNodes(6);
  Status status;
  const FuseId id = CreateGroupSync(cluster, members[0], members, &status);
  ASSERT_TRUE(status.ok());
  Recorder rec;
  for (size_t m : members) {
    rec.Watch(cluster, m, id);
  }
  // Partition half the members (with whatever delegates happen to sit where)
  // from the rest of the world.
  std::vector<HostId> side;
  for (size_t k = 3; k < 6; ++k) {
    side.push_back(cluster.node(members[k]).host());
  }
  cluster.net().faults().PartitionHosts(side);
  cluster.sim().RunFor(Duration::Minutes(8));
  // FUSE guarantees delivery on both sides of the partition (section 3.3),
  // even though no information can cross it.
  for (size_t m : members) {
    EXPECT_EQ(rec.fired[m], 1) << "member " << m;
  }
}

TEST(FuseIntransitiveTest, FailOnSendSignalsOnlyTheAffectedGroup) {
  SimCluster cluster(SmallConfig(32, 113));
  cluster.Build();
  const auto picks = cluster.PickLiveNodes(6);
  const std::vector<size_t> group_a{picks[0], picks[1], picks[2]};
  const std::vector<size_t> group_b{picks[0], picks[3], picks[4]};
  Status sa, sb;
  const FuseId id_a = CreateGroupSync(cluster, group_a[0], group_a, &sa);
  const FuseId id_b = CreateGroupSync(cluster, group_b[0], group_b, &sb);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  Recorder rec_a, rec_b;
  for (size_t m : group_a) {
    rec_a.Watch(cluster, m, id_a);
  }
  for (size_t m : group_b) {
    rec_b.Watch(cluster, m, id_b);
  }
  // Intransitive failure between two members of group A only: the FUSE layer
  // may not notice (they need not be overlay neighbors), but the application
  // does on its next send, and explicitly signals (fail-on-send, 3.4).
  cluster.net().faults().BlockPair(cluster.node(picks[1]).host(), cluster.node(picks[2]).host());
  cluster.node(picks[1]).fuse()->SignalFailure(id_a);
  cluster.sim().RunFor(Duration::Minutes(5));
  EXPECT_EQ(rec_a.TotalFirings(), 3);
  // Group B shares node picks[0] but no failed path: it must survive.
  EXPECT_EQ(rec_b.TotalFirings(), 0);
  for (size_t m : group_b) {
    EXPECT_TRUE(cluster.node(m).fuse()->IsParticipant(id_b));
  }
}

TEST(FuseDelegateTest, DelegateCrashRepairsWithoutFalsePositive) {
  SimCluster cluster(SmallConfig(48, 114));
  cluster.Build();
  // Create groups until one has a pure delegate we can crash.
  for (int attempt = 0; attempt < 20; ++attempt) {
    const auto members = cluster.PickLiveNodes(3);
    Status status;
    const FuseId id = CreateGroupSync(cluster, members[0], members, &status);
    ASSERT_TRUE(status.ok());
    cluster.sim().RunFor(Duration::Seconds(5));
    size_t delegate = SIZE_MAX;
    for (size_t i = 0; i < cluster.size(); ++i) {
      if (cluster.IsUp(i) && cluster.node(i).fuse()->HasLiveGroup(id) &&
          !cluster.node(i).fuse()->IsParticipant(id)) {
        delegate = i;
        break;
      }
    }
    if (delegate == SIZE_MAX) {
      continue;  // short paths, no delegates; try another group
    }
    Recorder rec;
    for (size_t m : members) {
      rec.Watch(cluster, m, id);
    }
    cluster.Crash(delegate);
    cluster.sim().RunFor(Duration::Minutes(10));
    // Delegate failures trigger repair, not application notification
    // (section 6: repair routes around all failures involving delegates).
    EXPECT_EQ(rec.TotalFirings(), 0) << "delegate crash caused a false positive";
    for (size_t m : members) {
      EXPECT_TRUE(cluster.node(m).fuse()->IsParticipant(id));
    }
    return;
  }
  GTEST_SKIP() << "no group with a pure delegate found";
}

TEST(FuseQuiescenceTest, NoFalsePositivesInHealthyNetwork) {
  SimCluster cluster(SmallConfig(40, 115));
  cluster.Build();
  std::vector<FuseId> ids;
  Recorder rec;
  for (int g = 0; g < 20; ++g) {
    const auto members = cluster.PickLiveNodes(4);
    Status status;
    const FuseId id = CreateGroupSync(cluster, members[0], members, &status);
    ASSERT_TRUE(status.ok());
    ids.push_back(id);
    for (size_t m : members) {
      rec.Watch(cluster, m, id);
    }
  }
  cluster.sim().RunFor(Duration::Minutes(40));
  EXPECT_EQ(rec.TotalFirings(), 0) << "healthy network produced false positives";
}

TEST(FuseSteadyStateTest, NoExtraMessagesWithoutFailures) {
  // Paper section 7.5: in the absence of failures, FUSE groups impose no
  // messages beyond overlay maintenance (only the piggybacked hash).
  SimCluster cluster(SmallConfig(40, 116));
  cluster.Build();
  auto& m = cluster.sim().metrics();
  cluster.sim().RunFor(Duration::Minutes(5));  // let pings reach steady state

  const uint64_t fuse_before =
      m.MessageCount(MsgCategory::kFuseSoftNotification) +
      m.MessageCount(MsgCategory::kFuseHardNotification) +
      m.MessageCount(MsgCategory::kFuseNeedRepair) + m.MessageCount(MsgCategory::kFuseRepair);
  for (int g = 0; g < 10; ++g) {
    const auto members = cluster.PickLiveNodes(4);
    Status status;
    CreateGroupSync(cluster, members[0], members, &status);
    ASSERT_TRUE(status.ok());
  }
  cluster.sim().RunFor(Duration::Minutes(20));
  const uint64_t fuse_after =
      m.MessageCount(MsgCategory::kFuseSoftNotification) +
      m.MessageCount(MsgCategory::kFuseHardNotification) +
      m.MessageCount(MsgCategory::kFuseNeedRepair) + m.MessageCount(MsgCategory::kFuseRepair);
  EXPECT_EQ(fuse_after, fuse_before)
      << "failure-free steady state generated FUSE repair/notification traffic";
}

// A root that signals its group as soon as the create verdict lands fails it
// while the members' InstallChecking messages are still on their way. Each
// such install dead-ends at the root, which no longer knows the group, and
// the root sends the member a Hard notification (paper 6.5). The delegates
// the install created on its way used to keep that half path until
// link_liveness_timeout: every lifecycle of the live `signal` benchmark left
// some behind. Fixed in FuseNode::OnInstallUpcall: the dead end also sends a
// SoftNotification with the install's seq back to the previous hop, which
// tears the half path down at once.
TEST(FuseInstallTeardownTest, SignalWhileInstallsInFlightLeavesNoState) {
  ClusterConfig cfg = SmallConfig(32, 121);
  SimCluster cluster(cfg);
  cluster.Build();
  constexpr int kGroups = 20;
  int verdicts = 0;
  int ok = 0;
  for (int g = 0; g < kGroups; ++g) {
    const auto members = cluster.PickLiveNodes(4);
    FuseNode* root = cluster.node(members[0]).fuse();
    root->CreateGroup(cluster.RefsOf(members), [&, root](const Status& s, FuseId id) {
      ++verdicts;
      if (s.ok()) {
        ++ok;
        root->SignalFailure(id);
      }
    });
  }
  cluster.sim().RunUntilCondition([&] { return verdicts == kGroups; },
                                  cluster.sim().Now() + Duration::Minutes(1));
  ASSERT_EQ(verdicts, kGroups);
  ASSERT_EQ(ok, kGroups);
  // Well inside the liveness timeout, so no link sweep has fired yet.
  cluster.sim().RunFor(cfg.fuse.link_liveness_timeout / 3);
  for (size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_EQ(cluster.node(i).fuse()->NumLiveGroups(), 0u) << "node " << i;
    EXPECT_EQ(cluster.node(i).fuse()->NumMonitoredLinks(), 0u) << "node " << i;
  }
}

// The teardown of a dead-ended install meets a live tree: a pure delegate
// of a live group routes an InstallChecking for it toward a node that holds
// no state for the group. The dead end's SoftNotification comes back to the
// delegate, which passes it on along the group's tree as for any broken
// path: the root repairs, and no member is notified (6.5: soft notifications
// trigger repair; only hard ones reach the application). The install names
// the dead-end node as its member, so its Hard notification goes nowhere.
TEST(FuseInstallTeardownTest, DeadEndOnLiveGroupRepairsWithoutNotifying) {
  ClusterConfig cfg = SmallConfig(48, 114);
  SimCluster cluster(cfg);
  cluster.Build();
  for (int attempt = 0; attempt < 20; ++attempt) {
    const auto members = cluster.PickLiveNodes(3);
    Status status;
    const FuseId id = CreateGroupSync(cluster, members[0], members, &status);
    ASSERT_TRUE(status.ok());
    cluster.sim().RunFor(Duration::Seconds(5));
    size_t delegate = SIZE_MAX;
    size_t dead_end = SIZE_MAX;
    for (size_t i = 0; i < cluster.size(); ++i) {
      FuseNode* f = cluster.node(i).fuse();
      if (delegate == SIZE_MAX && f->HasLiveGroup(id) && !f->IsParticipant(id)) {
        delegate = i;
      } else if (dead_end == SIZE_MAX && !f->HasLiveGroup(id)) {
        dead_end = i;
      }
    }
    if (delegate == SIZE_MAX) {
      continue;  // short paths, no delegates; try another group
    }
    ASSERT_NE(dead_end, SIZE_MAX);
    ASSERT_NE(cluster.node(delegate).fuse()->DebugGroupState(id).find("seq=0"),
              std::string::npos);
    Recorder rec;
    for (size_t m : members) {
      rec.Watch(cluster, m, id);
    }
    FuseNode* root = cluster.node(members[0]).fuse();
    const uint64_t repairs_before = root->stats().repairs_initiated;
    Writer w;
    WriteFuseId(w, id);
    w.PutU32(0);
    WriteNodeRef(w, cluster.RefOf(dead_end));
    cluster.node(delegate).overlay()->RouteByName(cluster.RefOf(dead_end).name,
                                                  FuseNode::kRoutedTag, w.Take(),
                                                  MsgCategory::kFuseInstallChecking);
    cluster.sim().RunFor(cfg.fuse.link_liveness_timeout / 3);
    EXPECT_GT(root->stats().repairs_initiated, repairs_before) << "no repair round ran";
    // Every node still on the tree was re-installed by the repair: no half
    // path of the first round (seq 0) is left.
    for (size_t i = 0; i < cluster.size(); ++i) {
      EXPECT_EQ(cluster.node(i).fuse()->DebugGroupState(id).find("seq=0"), std::string::npos)
          << "node " << i << ": " << cluster.node(i).fuse()->DebugGroupState(id);
    }
    cluster.sim().RunFor(Duration::Minutes(5));
    EXPECT_EQ(rec.TotalFirings(), 0) << "a soft teardown notified a member";
    for (size_t m : members) {
      EXPECT_TRUE(cluster.node(m).fuse()->IsParticipant(id)) << "member " << m;
    }
    EXPECT_FALSE(cluster.node(dead_end).fuse()->HasLiveGroup(id));
    return;
  }
  GTEST_SKIP() << "no group with a pure delegate found";
}

bool StateHas(const FuseNode& node, FuseId id, const std::string& field) {
  return node.DebugGroupState(id).find(field) != std::string::npos;
}

// The per-group backstop (paper 6.2) covers a participant that holds no
// tree links: the peer sweep cannot see such a group. A member whose overlay
// drops the root keeps no links, and its re-installs find no route, so it
// stays linkless: the backstop fires every link_liveness_timeout, asks the
// root for a repair, and re-arms. Repair rounds never time the group out
// here (long repair and install timeouts), and the root's own repairs back
// off for longer than a ping period, so they cannot re-arm the member's
// backstop between its arming and its firing.
TEST(FuseBackstopTest, LinklessMemberRepairsEveryLivenessTimeout) {
  ClusterConfig cfg = SmallConfig(2, 131);
  cfg.overlay.ping_period = Duration::Seconds(10);
  cfg.overlay.ping_timeout = Duration::Seconds(4);
  cfg.fuse.link_liveness_timeout = Duration::Seconds(30);
  cfg.fuse.repair_backoff_initial = Duration::Seconds(20);
  cfg.fuse.member_repair_timeout = Duration::Minutes(60);
  cfg.fuse.root_repair_timeout = Duration::Minutes(60);
  cfg.fuse.install_timeout = Duration::Minutes(60);
  SimCluster cluster(cfg);
  cluster.Build();
  const size_t root = 0;
  const size_t member = 1;
  Status status;
  const FuseId id = CreateGroupSync(cluster, root, {root, member}, &status);
  ASSERT_TRUE(status.ok());
  cluster.sim().RunFor(Duration::Seconds(1));
  const FuseNode& m = *cluster.node(member).fuse();
  for (size_t i : {root, member}) {
    const FuseNode& f = *cluster.node(i).fuse();
    EXPECT_TRUE(f.HasParticipantRecord(id)) << "node " << i;
    EXPECT_FALSE(f.BackstopArmed(id)) << "node " << i << " holds a link: the sweep covers it";
  }

  // The member loses its last link: it arms the backstop and asks for repair.
  cluster.node(member).overlay()->ReportNeighborFailure(cluster.RefOf(root).host);
  EXPECT_TRUE(StateHas(m, id, "links=[]")) << m.DebugGroupState(id);
  EXPECT_TRUE(m.BackstopArmed(id));
  EXPECT_TRUE(StateHas(m, id, "member_repair_armed"));

  // The root's repair round reaches the member, which drops its (already
  // empty) links, restarts the backstop and re-installs along no route.
  ASSERT_TRUE(cluster.sim().RunUntilCondition([&] { return StateHas(m, id, "seq=1"); },
                                              cluster.sim().Now() + Duration::Seconds(10)));
  const TimePoint armed_at = cluster.sim().Now();
  EXPECT_TRUE(StateHas(m, id, "links=[]")) << m.DebugGroupState(id);
  EXPECT_TRUE(m.BackstopArmed(id));
  EXPECT_FALSE(StateHas(m, id, "member_repair_armed"));

  // It fires link_liveness_timeout later, starts the member's half of a
  // repair (NeedRepair to the root, member repair timer armed) and re-arms,
  // since the group still has no links.
  const Duration timeout = cfg.fuse.link_liveness_timeout;
  ASSERT_TRUE(cluster.sim().RunUntilCondition(
      [&] { return StateHas(m, id, "member_repair_armed"); }, armed_at + timeout));
  EXPECT_EQ(cluster.sim().Now(), armed_at + timeout);
  EXPECT_TRUE(StateHas(m, id, "links=[]")) << m.DebugGroupState(id);
  EXPECT_TRUE(m.BackstopArmed(id));
  // That NeedRepair brings the root's next round to the member.
  EXPECT_TRUE(cluster.sim().RunUntilCondition([&] { return StateHas(m, id, "seq=2"); },
                                              cluster.sim().Now() + timeout));
  EXPECT_TRUE(m.BackstopArmed(id));
}

// A root that loses its last link arms the backstop, and failing the group
// cancels every event the group held. The link is a phantom: an
// InstallChecking that a neighbor routed to a one-node group's root without
// holding state of its own, so nothing confirms it and the sweep removes it
// at its deadline (reconciles are held off). The group has no members, so
// its failure sends nothing: the pending-event count falls by exactly the
// group's armed timers.
TEST(FuseBackstopTest, RootBackstopArmsAndDiesWithTheGroup) {
  ClusterConfig cfg = SmallConfig(2, 132);
  cfg.overlay.ping_period = Duration::Seconds(5);
  cfg.overlay.ping_timeout = Duration::Seconds(2);
  cfg.fuse.link_liveness_timeout = Duration::Seconds(30);
  cfg.fuse.root_repair_timeout = Duration::Minutes(60);
  cfg.fuse.reconcile_min_interval = Duration::Minutes(600);
  cfg.fuse.grace_period = Duration::Minutes(600);
  SimCluster cluster(cfg);
  cluster.Build();
  const size_t a = 0;
  const size_t p = 1;
  Status status;
  const FuseId id = CreateGroupSync(cluster, a, {a}, &status);
  ASSERT_TRUE(status.ok());
  FuseNode& root = *cluster.node(a).fuse();
  EXPECT_TRUE(root.HasParticipantRecord(id));
  EXPECT_FALSE(root.BackstopArmed(id)) << "a one-node group has nothing to monitor";

  Writer w;
  WriteFuseId(w, id);
  w.PutU32(0);
  WriteNodeRef(w, cluster.RefOf(p));
  cluster.node(p).overlay()->RouteByName(cluster.RefOf(a).name, FuseNode::kRoutedTag, w.Take(),
                                         MsgCategory::kFuseInstallChecking);
  const std::string phantom = "links=[" + std::to_string(cluster.RefOf(p).host.value) + "]";
  ASSERT_TRUE(cluster.sim().RunUntilCondition([&] { return StateHas(root, id, phantom); },
                                              cluster.sim().Now() + Duration::Seconds(1)));
  EXPECT_FALSE(root.BackstopArmed(id));

  ASSERT_TRUE(cluster.sim().RunUntilCondition([&] { return root.BackstopArmed(id); },
                                              cluster.sim().Now() + 2 * cfg.fuse.link_liveness_timeout));
  EXPECT_TRUE(StateHas(root, id, "links=[]")) << root.DebugGroupState(id);
  // Past one firing: the backstop re-armed, and the group still lives.
  cluster.sim().RunFor(cfg.fuse.link_liveness_timeout + Duration::Seconds(1));
  ASSERT_TRUE(root.BackstopArmed(id));

  int notified = 0;
  root.RegisterFailureHandler(id, [&](FuseId) { ++notified; });
  const size_t pending = cluster.sim().queue().PendingCount();
  const size_t armed = root.CountArmedGroupTimers();
  root.SignalFailure(id);
  EXPECT_EQ(notified, 1);
  EXPECT_FALSE(root.HasLiveGroup(id));
  const size_t armed_after = root.CountArmedGroupTimers();
  EXPECT_LE(armed_after, 1u) << "only the peer sweep may stay armed";
  EXPECT_EQ(pending - cluster.sim().queue().PendingCount(), armed - armed_after);
}

// Pure delegates keep only the checking state (paper 6.3): no participant
// record, so never a backstop, before or after a member crash.
TEST(FuseBackstopTest, PureDelegatesHoldNoParticipantState) {
  SimCluster cluster(SmallConfig(48, 133));
  cluster.Build();
  std::vector<FuseId> ids;
  std::vector<std::vector<size_t>> groups;
  for (int g = 0; g < 12; ++g) {
    const auto members = cluster.PickLiveNodes(3);
    Status status;
    ids.push_back(CreateGroupSync(cluster, members[0], members, &status));
    ASSERT_TRUE(status.ok());
    groups.push_back(members);
  }
  auto check_delegates = [&] {
    size_t delegates = 0;
    for (const FuseId id : ids) {
      for (size_t i = 0; i < cluster.size(); ++i) {
        if (!cluster.IsUp(i)) {
          continue;
        }
        const FuseNode& f = *cluster.node(i).fuse();
        if (!f.HasLiveGroup(id)) {
          continue;
        }
        EXPECT_EQ(f.HasParticipantRecord(id), f.IsParticipant(id)) << "node " << i;
        if (!f.IsParticipant(id)) {
          ++delegates;
          EXPECT_FALSE(f.BackstopArmed(id)) << "node " << i;
        }
      }
    }
    return delegates;
  };
  cluster.sim().RunFor(Duration::Seconds(5));
  EXPECT_GT(check_delegates(), 0u) << "no pure delegate to check";
  cluster.Crash(groups[0][1]);
  for (int step = 0; step < 6; ++step) {
    cluster.sim().RunFor(Duration::Seconds(30));
    check_delegates();
  }
}

// A root that loses one tree link soft-notifies the rest of its tree, and
// those peers drop their ends of the old tree. The root drops its own ends
// when the repair round starts, as each member does when the round's request
// reaches it. It used to keep them: its digests then disagreed with those
// peers, and the reconcile that tore the stale ends down scheduled a second
// round, with a doubled backoff, for a tree the first round had already
// rebuilt.
TEST(FuseRepairTest, RootDropsItsOldEndsWhenARoundStarts) {
  SimCluster cluster(SmallConfig(24, 141));
  cluster.Build();
  // A group whose root holds links to at least two peers.
  FuseId id;
  size_t root = 0;
  HostId lost;
  for (int attempt = 0; attempt < 20 && !lost.valid(); ++attempt) {
    const auto members = cluster.PickLiveNodes(4);
    Status status;
    id = CreateGroupSync(cluster, members[0], members, &status);
    ASSERT_TRUE(status.ok());
    cluster.sim().RunFor(Duration::Seconds(5));
    root = members[0];
    const FuseNode& f = *cluster.node(root).fuse();
    size_t peers = 0;
    for (size_t i = 0; i < cluster.size(); ++i) {
      if (f.HasLinksTo(cluster.RefOf(i).host) &&
          StateHas(f, id, std::to_string(cluster.RefOf(i).host.value))) {
        ++peers;
        lost = cluster.RefOf(i).host;
      }
    }
    if (peers < 2) {
      lost = HostId();
    }
  }
  ASSERT_TRUE(lost.valid()) << "no root with two link peers";
  const FuseNode& f = *cluster.node(root).fuse();
  cluster.node(root).overlay()->ReportNeighborFailure(lost);
  ASSERT_TRUE(cluster.sim().RunUntilCondition([&] { return StateHas(f, id, "repairing"); },
                                              cluster.sim().Now() + Duration::Seconds(10)));
  EXPECT_TRUE(StateHas(f, id, "links=[]")) << f.DebugGroupState(id);
  // The rounds that answer the failure itself, and the NeedRepairs of the
  // members it soft-notified, all start within seconds. A reconcile needs a
  // ping first, so a round it drives would start later.
  cluster.sim().RunFor(Duration::Seconds(10));
  const uint64_t rounds = f.stats().repairs_initiated;
  cluster.sim().RunFor(Duration::Minutes(5));
  EXPECT_TRUE(f.HasLiveGroup(id));
  EXPECT_EQ(f.stats().repairs_initiated, rounds) << f.DebugGroupState(id);
  EXPECT_EQ(f.stats().reconciles, 0u);
}

// Groups of four random nodes on the LargeScale testbed (64 nodes), created
// one per simulated millisecond; returns the created IDs.
std::vector<std::pair<FuseId, std::vector<size_t>>> CreateRandomGroups(SimCluster& cluster,
                                                                       Rng& rng, int n) {
  std::vector<std::pair<FuseId, std::vector<size_t>>> groups;
  int pending = n;
  for (int k = 0; k < n; ++k) {
    const std::vector<size_t> members = rng.SampleIndices(cluster.size(), 4);
    cluster.node(members[0])
        .fuse()
        ->CreateGroup(cluster.RefsOf(members), [&, members](const Status& s, FuseId id) {
          if (s.ok()) {
            groups.emplace_back(id, members);
          }
          --pending;
        });
    cluster.sim().RunFor(Duration::Millis(1));
  }
  cluster.sim().RunUntilCondition([&] { return pending == 0; },
                                  cluster.sim().Now() + Duration::Minutes(3));
  return groups;
}

// FUSE pins every host it holds links to in the overlay's ping set. Leaf
// exchange replaces some routing neighbors during an idle window; a peer
// that leaves the routing table while links use it stays pinged, its digest
// keeps confirming them, and no tree is swept or repaired. Once the groups
// are gone the pins are too: the ping set is the routing table again.
TEST(FusePinTest, PeerLeavingTheRoutingTableStaysPingedWhileLinked) {
  SimCluster cluster(ClusterConfig::LargeScale(64, 1));
  cluster.Build();
  Rng rng(7);
  const auto groups = CreateRandomGroups(cluster, rng, 500);
  ASSERT_EQ(groups.size(), 500u);
  auto linked_neighbors = [&cluster] {
    std::vector<std::pair<size_t, HostId>> pairs;
    for (size_t i = 0; i < cluster.size(); ++i) {
      for (size_t j = 0; j < cluster.size(); ++j) {
        const HostId h = cluster.RefOf(j).host;
        if (cluster.node(i).fuse()->HasLinksTo(h) &&
            cluster.node(i).overlay()->table().HasNeighbor(h)) {
          pairs.emplace_back(i, h);
        }
      }
    }
    return pairs;
  };
  const auto before = linked_neighbors();
  uint64_t repairs0 = 0;
  for (size_t i = 0; i < cluster.size(); ++i) {
    repairs0 += cluster.node(i).fuse()->stats().repairs_initiated;
  }
  cluster.sim().RunFor(Duration::Minutes(8));  // three leaf exchange periods

  size_t left = 0;
  uint64_t repairs = 0;
  for (const auto& [i, h] : before) {
    const FuseNode& f = *cluster.node(i).fuse();
    if (f.HasLinksTo(h) && !cluster.node(i).overlay()->table().HasNeighbor(h)) {
      ++left;
      EXPECT_TRUE(cluster.node(i).overlay()->IsPinged(h)) << "node " << i << " peer " << h.value;
    }
  }
  size_t live = 0;
  for (size_t i = 0; i < cluster.size(); ++i) {
    repairs += cluster.node(i).fuse()->stats().repairs_initiated;
    live += cluster.node(i).fuse()->NumLiveGroups();
  }
  EXPECT_GT(left, 0u) << "no linked peer left a routing table";
  EXPECT_EQ(repairs, repairs0) << "an idle window repaired trees";

  for (const auto& [id, members] : groups) {
    cluster.node(members[0]).fuse()->SignalFailure(id);
  }
  cluster.sim().RunFor(Duration::Seconds(30));
  size_t links_left = 0;
  size_t unpinned = 0;
  for (size_t i = 0; i < cluster.size(); ++i) {
    const SkipNetNode& overlay = *cluster.node(i).overlay();
    const FuseNode& f = *cluster.node(i).fuse();
    for (size_t j = 0; j < cluster.size(); ++j) {
      const HostId h = cluster.RefOf(j).host;
      EXPECT_EQ(overlay.IsPinged(h), overlay.table().HasNeighbor(h) || f.HasLinksTo(h))
          << "node " << i << " peer " << j;
      unpinned += overlay.IsPinged(h) ? 0 : 1;
    }
    links_left += f.NumMonitoredLinks();
  }
  EXPECT_GT(live, 0u);
  EXPECT_LT(links_left, 10u) << "the signals left links behind";
  EXPECT_GT(unpinned, 0u);
}

// A pinned host that is not a routing neighbor reports its ping timeout to
// FUSE like a neighbor does. The chosen member's only link runs to a node
// whose routing table does not hold the member; the member crashes, and
// that node alone can see it. It pings the member because the link pins it,
// so the group fails within a ping period plus the ping timeout (and the
// repair that follows), long before the link liveness deadline.
TEST(FusePinTest, PinnedNonNeighborCrashNotifiesWithinPingTimeout) {
  ClusterConfig cfg = ClusterConfig::LargeScale(64, 1);
  cfg.fuse.link_liveness_timeout = Duration::Minutes(30);
  SimCluster cluster(cfg);
  cluster.Build();
  Rng rng(11);
  const auto groups = CreateRandomGroups(cluster, rng, 200);
  cluster.sim().RunFor(Duration::Seconds(10));
  // A member whose only link in its group runs to a node that pins it.
  const std::pair<FuseId, std::vector<size_t>>* chosen = nullptr;
  size_t victim = 0;
  for (const auto& g : groups) {
    for (size_t k = 1; k < g.second.size() && chosen == nullptr; ++k) {
      const size_t m = g.second[k];
      const HostId mh = cluster.RefOf(m).host;
      for (size_t holder = 0; holder < cluster.size(); ++holder) {
        const std::string only_link =
            "links=[" + std::to_string(cluster.RefOf(holder).host.value) + "]";
        if (holder != m && StateHas(*cluster.node(m).fuse(), g.first, only_link) &&
            !cluster.node(holder).overlay()->table().HasNeighbor(mh) &&
            cluster.node(holder).overlay()->IsPinged(mh)) {
          chosen = &g;
          victim = m;
          break;
        }
      }
    }
  }
  ASSERT_NE(chosen, nullptr) << "no member links only to a node that pins it";
  Recorder rec;
  for (const size_t m : chosen->second) {
    rec.Watch(cluster, m, chosen->first);
  }
  const TimePoint crash_at = cluster.sim().Now();
  cluster.Crash(victim);
  const Duration bound =
      cfg.overlay.ping_period + cfg.overlay.ping_timeout + Duration::Seconds(30);
  cluster.sim().RunFor(bound);
  for (const size_t m : chosen->second) {
    if (m == victim) {
      continue;
    }
    EXPECT_EQ(rec.fired[m], 1) << "member " << m;
    EXPECT_LE(rec.when[m], crash_at + bound) << "member " << m;
  }
}

// One crash of a whole simulated machine under idle groups, graded like the
// sim_groups benchmark: the testbed is ClusterConfig::LargeScale's, 64 nodes
// placed ten to a machine, so a machine is a contiguous arc of ten names,
// wider than leaf_set_half (8). Groups of four random nodes are created one
// per simulated millisecond, idle for `steady`, and then `victim` crashes.
struct MachineCrashOutcome {
  int created = 0;
  int touched = 0;          // groups with a member on the victim machine
  int false_notify = 0;     // upcalls at members of untouched groups
  int missed = 0;           // live members of touched groups never notified
  uint64_t repairs = 0;     // root repair rounds in the steady window
  uint64_t reconciles = 0;  // reconcile exchanges in the steady window
};

MachineCrashOutcome RunMachineCrash(uint64_t seed, int num_groups, Duration steady,
                                    size_t victim) {
  constexpr size_t kNodes = 64;
  SimCluster cluster(ClusterConfig::LargeScale(kNodes, 1));
  cluster.Build();
  Rng rng(seed);
  struct Group {
    std::vector<size_t> members;
    FuseId id;
    bool ok = false;
    std::vector<int> fires;
  };
  std::vector<Group> groups(num_groups);
  int pending = num_groups;
  for (Group& g : groups) {
    g.members = rng.SampleIndices(kNodes, 4);
    g.fires.assign(g.members.size(), 0);
    cluster.node(g.members[0])
        .fuse()
        ->CreateGroup(cluster.RefsOf(g.members), [&g, &pending](const Status& s, FuseId id) {
          g.ok = s.ok();
          g.id = id;
          --pending;
        });
    cluster.sim().RunFor(Duration::Millis(1));
  }
  cluster.sim().RunUntilCondition([&] { return pending == 0; },
                                  cluster.sim().Now() + Duration::Minutes(3));
  MachineCrashOutcome out;
  for (Group& g : groups) {
    if (!g.ok) {
      continue;
    }
    ++out.created;
    for (size_t k = 0; k < g.members.size(); ++k) {
      cluster.node(g.members[k]).fuse()->RegisterFailureHandler(g.id, [&g, k](FuseId) {
        ++g.fires[k];
      });
    }
  }
  auto sum_stats = [&cluster](uint64_t FuseNode::Stats::*field) {
    uint64_t n = 0;
    for (size_t i = 0; i < cluster.size(); ++i) {
      if (cluster.IsUp(i)) {
        n += cluster.node(i).fuse()->stats().*field;
      }
    }
    return n;
  };
  const uint64_t repairs0 = sum_stats(&FuseNode::Stats::repairs_initiated);
  const uint64_t reconciles0 = sum_stats(&FuseNode::Stats::reconciles);
  cluster.sim().RunFor(steady);
  out.repairs = sum_stats(&FuseNode::Stats::repairs_initiated) - repairs0;
  out.reconciles = sum_stats(&FuseNode::Stats::reconciles) - reconciles0;
  cluster.CrashMachine(victim);
  cluster.sim().RunFor(Duration::Minutes(10));
  for (const Group& g : groups) {
    if (!g.ok) {
      continue;
    }
    bool touched = false;
    for (const size_t m : g.members) {
      touched = touched || cluster.MachineOf(m) == static_cast<int>(victim);
    }
    out.touched += touched ? 1 : 0;
    for (size_t k = 0; k < g.members.size(); ++k) {
      if (!touched) {
        out.false_notify += g.fires[k];
      } else if (cluster.MachineOf(g.members[k]) != static_cast<int>(victim) && g.fires[k] == 0) {
        ++out.missed;
      }
    }
  }
  return out;
}

// A machine crash must leave the groups it does not touch silent. Each
// survivor next to the victim's arc used to lose every leaf on that side one
// ping timeout at a time, and a refill asked only the leaves it still held,
// which lay in the same dead arc. Once the last of them was gone, an
// InstallChecking routed toward a live root on the far side of the arc found
// no next hop there, and the "route stalled" HardNotification failed a group
// whose root and members were all alive. Fixed in SkipNetNode::RefillLeafSet:
// a side whose farthest leaf is silent, or a side left empty, is re-closed by
// walking back from the nearest node known beyond it.
TEST(FuseMachineCrashTest, ArcWiderThanLeafSetLeavesDisjointGroupsSilent) {
  const MachineCrashOutcome o = RunMachineCrash(1, 500, Duration::Seconds(180), 2);
  EXPECT_GT(o.touched, 0);
  EXPECT_LT(o.touched, o.created);
  EXPECT_EQ(o.false_notify, 0);
  EXPECT_EQ(o.missed, 0);
}

// A minimized replay of the sim_groups benchmark at seed 1 and --seconds 5,
// which failed 680 of 31,250 operations, all false notifications of groups
// the crash of machine 0 did not touch. The same shape with 500 groups
// failed 64 upcalls. Two causes, both fixed: the overlay's leaf exchange
// dropped peers from the ping set while FUSE links rode on them, so idle
// trees were swept and repaired over and over (FUSE now pins every linked
// peer in the ping set), and the arc refill above.
TEST(FuseMachineCrashTest, SimGroupsSeedOneFiveSecondReplay) {
  const MachineCrashOutcome o = RunMachineCrash(1, 500, Duration::Seconds(180), 0);
  EXPECT_EQ(o.false_notify, 0);
  EXPECT_EQ(o.missed, 0);
  // Idle groups cost only pings: the steady window runs no repair round.
  EXPECT_EQ(o.repairs, 0u);
}

TEST(FuseDeterminismTest, SameSeedSameOutcome) {
  auto run = [](uint64_t seed) {
    SimCluster cluster(SmallConfig(24, seed));
    cluster.Build();
    const auto members = cluster.PickLiveNodes(4);
    Status status;
    const FuseId id = CreateGroupSync(cluster, members[0], members, &status);
    cluster.Crash(members[1]);
    cluster.sim().RunFor(Duration::Minutes(6));
    return std::make_pair(id.lo ^ id.hi, cluster.sim().metrics().TotalMessages());
  };
  EXPECT_EQ(run(314), run(314));
}

}  // namespace
}  // namespace fuse

