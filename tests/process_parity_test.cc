// Sim ↔ live ↔ process parity: the backend-parameterized fault schedules
// from runtime/scenario.h — the same definitions property_test.cc runs on
// the discrete-event simulator and live_parity_test.cc runs on the threaded
// in-process runtime — executed against ProcessCluster, where every node is
// its own OS process, messages are length-prefixed frames over loopback TCP,
// and a crash is a real SIGKILL. These run as the `process-parity` ctest
// label (gated in CI's main job and TSan job); scripts/check.sh skips the
// label on sandboxes without epoll/fork support.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "runtime/process_cluster.h"
#include "runtime/scenario.h"

#if defined(__linux__)

namespace fuse {
namespace {

ScenarioOptions ProcessOptions(uint64_t seed) {
  ScenarioOptions opts;
  opts.seed = seed;
  // Same shape as the live-parity runs: the point is cross-process coverage
  // per wall-clock second, not schedule breadth.
  opts.num_groups = 3;
  opts.min_group_size = 2;
  opts.max_group_size = 4;
  opts.timing = ScenarioTiming::Live();
  return opts;
}

// Parameterized over (scenario, transport): the same schedules run over
// loopback TCP frames and over the coalescing UDP datagram fabric, where a
// SIGKILLed worker is observed as silence + retransmit exhaustion rather
// than a broken connection. CI selects the UDP leg by test name (-R Udp).
class ProcessParityScenario
    : public ::testing::TestWithParam<std::tuple<ScenarioKind, TransportKind>> {};

TEST_P(ProcessParityScenario, AgreementHoldsAcrossOsProcesses) {
  const ScenarioKind kind = std::get<0>(GetParam());
  const TransportKind transport = std::get<1>(GetParam());
  // ChurnDuringCreate draws groups from the stable lower index half (and
  // SIGKILL/refork-cycles the upper half), so it needs headroom over
  // max_group_size.
  const int num_nodes = kind == ScenarioKind::kChurnDuringCreate ? 12 : 8;
  ProcessClusterConfig cfg = ProcessClusterConfig::FastProtocol(num_nodes, /*seed=*/42);
  cfg.transport = transport;
  ProcessCluster cluster(cfg);
  cluster.Build();
  const ScenarioResult result = RunAgreementScenario(cluster, kind, ProcessOptions(42));
  EXPECT_TRUE(result.ok()) << ScenarioKindName(kind) << " process: " << result.ToString();
  // A skipped target (all retried creates definitely failed under churn) is
  // a legal vacuous outcome on a nondeterministic backend; anything else
  // must have exercised the notification path.
  if (!result.target_skipped) {
    EXPECT_GE(result.notified, 1) << "scenario did not exercise the notification path";
  }

  // Transport accounting, summed across the surviving workers. Beyond the
  // report (visible with --gtest_also_run_disabled_tests-style verbosity via
  // ctest -V), assert the counters are live: every run moves real traffic.
  const std::map<std::string, uint64_t> counters = cluster.TransportCounters();
  std::string report;
  for (const auto& [name, value] : counters) {
    report += "  " + name + " = " + std::to_string(value) + "\n";
  }
  SCOPED_TRACE("transport counters:\n" + report);
  ASSERT_TRUE(counters.contains("transport_send_syscalls"));
  EXPECT_GT(counters.at("transport_send_syscalls"), 0u);
  EXPECT_GT(counters.at("transport_recv_syscalls"), 0u);
  if (transport == TransportKind::kUdp) {
    // The datagram fabric must actually be the one moving traffic. (No
    // records >= datagrams invariant: ack-only datagrams count toward
    // datagrams_sent but carry no data records.)
    EXPECT_GT(counters.at("transport_datagrams_sent"), 0u);
    EXPECT_GT(counters.at("transport_records_sent"), 0u);
  } else {
    EXPECT_EQ(counters.at("transport_datagrams_sent"), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, ProcessParityScenario,
    // kMachineFailure under the default one-node-per-worker placement: every
    // machine is a singleton, so the machine loss is one genuine SIGKILL —
    // the degenerate end of the placement spectrum (process_multinode_test.cc
    // covers the multi-tenant end).
    ::testing::Combine(::testing::Values(ScenarioKind::kCrashMember,
                                         ScenarioKind::kPartitionHeal,
                                         ScenarioKind::kChurnDuringCreate,
                                         ScenarioKind::kMachineFailure),
                       ::testing::Values(TransportKind::kTcp, TransportKind::kUdp)),
    [](const ::testing::TestParamInfo<std::tuple<ScenarioKind, TransportKind>>& pinfo) {
      std::string name = ScenarioKindName(std::get<0>(pinfo.param));
      if (std::get<1>(pinfo.param) == TransportKind::kUdp) {
        name += "Udp";
      }
      return name;
    });

// An explicit signal issued through the harness (the hook GroupService's
// Signal rides on) reaches the worker hosting the signalling node, and the
// group notifies every member exactly once, over both transports.
class ProcessSignal : public ::testing::TestWithParam<TransportKind> {};

TEST_P(ProcessSignal, SignalledGroupNotifiesEveryMemberOnce) {
  ProcessClusterConfig cfg = ProcessClusterConfig::FastProtocol(6, /*seed=*/5);
  cfg.transport = GetParam();
  ProcessCluster cluster(cfg);
  cluster.Build();
  const std::vector<size_t> members = {1, 2, 4, 5};

  bool created = false;
  Status status = Status::Ok();
  FuseId id;
  cluster.Run([&] {
    cluster.CreateGroupInContext(members[0], cluster.RefsOf(members),
                                 [&](const Status& s, FuseId g) {
                                   status = s;
                                   id = g;
                                   created = true;
                                 });
  });
  ASSERT_TRUE(cluster.Await([&] { return created; }, Duration::Seconds(10)));
  ASSERT_TRUE(status.ok()) << status.ToString();

  // Touched only in the protocol context (watch callbacks, Await, Run).
  std::map<size_t, int> fired;
  cluster.Run([&] {
    for (const size_t m : members) {
      cluster.WatchGroupMemberInContext(m, id, [&fired, m] { fired[m]++; });
    }
    cluster.SignalGroupInContext(members[2], id);
  });
  const bool all = cluster.Await(
      [&] {
        for (const size_t m : members) {
          if (fired[m] == 0) {
            return false;
          }
        }
        return true;
      },
      Duration::Seconds(10));
  EXPECT_TRUE(all) << "not every member heard the signalled failure";
  cluster.AdvanceFor(Duration::Seconds(1));  // window for duplicates
  cluster.Run([&] {
    for (const size_t m : members) {
      EXPECT_EQ(fired[m], 1) << "member " << m;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Transports, ProcessSignal,
                         ::testing::Values(TransportKind::kTcp, TransportKind::kUdp),
                         [](const ::testing::TestParamInfo<TransportKind>& pinfo) {
                           return pinfo.param == TransportKind::kUdp ? "Udp" : "Tcp";
                         });

// Crash/restart round trip at the deployment level: SIGKILL one worker, fork
// a fresh incarnation, and verify it rejoins the overlay (new port, new
// numeric id, re-advertised address map) well within the restart bound.
TEST(ProcessClusterLifecycle, SigkillThenRestartRejoins) {
  ProcessCluster cluster(ProcessClusterConfig::FastProtocol(6, /*seed=*/7));
  cluster.Build();
  bool joined0 = false;
  cluster.Run([&] { joined0 = cluster.IsJoined(3); });
  ASSERT_TRUE(joined0);

  cluster.Crash(3);
  bool up_now = true;
  bool joined_now = true;
  cluster.Run([&] {
    up_now = cluster.IsUp(3);
    joined_now = cluster.IsJoined(3);
  });
  EXPECT_FALSE(up_now);
  EXPECT_FALSE(joined_now);

  // No down-window: the fresh incarnation restarts immediately. The join
  // path is incarnation-aware — a hop that would route the join search to
  // the joiner's own (stale, dead) table entry evicts it and routes around —
  // so survivors need not notice the crash first.
  cluster.Restart(3);
  bool joined = false;
  cluster.Run([&] { joined = cluster.IsJoined(3); });
  EXPECT_TRUE(joined) << "restarted worker did not rejoin the overlay";
}

}  // namespace
}  // namespace fuse

#endif  // defined(__linux__)
