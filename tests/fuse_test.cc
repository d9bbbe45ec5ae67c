// Integration tests for FUSE group semantics (paper sections 3 and 6):
// distributed one-way agreement under crashes, partitions, intransitive
// connectivity failures, and delegate failures.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

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
