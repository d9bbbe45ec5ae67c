#include "runtime/scenario.h"

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "common/logging.h"
#include "runtime/agreement_oracle.h"

namespace fuse {

const char* ScenarioKindName(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::kCrashMember:
      return "CrashMember";
    case ScenarioKind::kPartitionHeal:
      return "PartitionHeal";
    case ScenarioKind::kChurnDuringCreate:
      return "ChurnDuringCreate";
    case ScenarioKind::kMachineFailure:
      return "MachineFailure";
  }
  return "Unknown";
}

ScenarioTiming ScenarioTiming::Sim() {
  ScenarioTiming t;
  t.settle = Duration::Minutes(2);
  t.create_bound = Duration::Minutes(3);
  // The analytic bound: ping interval + ping timeout + repair timeouts,
  // with slack for backoff — well within 8 minutes for these parameters.
  t.detect_bound = Duration::Minutes(8);
  t.post_settle = Duration::Minutes(2);
  t.churn_mean_uptime = Duration::Seconds(90);
  t.churn_mean_downtime = Duration::Seconds(60);
  return t;
}

ScenarioTiming ScenarioTiming::Live() {
  ScenarioTiming t;
  // Matched to LiveClusterConfig::FastProtocol's scaled constants: detection
  // is a few ping periods + repair timeouts, i.e. single-digit seconds.
  t.settle = Duration::Seconds(1);
  t.create_bound = Duration::Seconds(5);
  t.detect_bound = Duration::Seconds(10);
  t.post_settle = Duration::Seconds(1);
  t.churn_mean_uptime = Duration::Millis(1500);
  t.churn_mean_downtime = Duration::Millis(1000);
  return t;
}

std::string ScenarioResult::ToString() const {
  char head[96];
  std::snprintf(head, sizeof(head), "groups_created=%d creates_failed=%d notified=%d%s",
                groups_created, creates_failed, notified,
                target_skipped ? " (target skipped: adverse network)" : "");
  std::string s = head;
  for (const auto& v : violations) {
    s += "\n  violation: ";
    s += v;
  }
  return s;
}

namespace {

// kMachineFailure's member selection: a spanning group gets one or two
// members on the doomed machine and the rest elsewhere, with the create root
// randomized over the whole membership (a root on the victim machine
// exercises the dead-root notification path); a disjoint group lives off it.
std::vector<size_t> MachineGroupMembers(Rng& rng, size_t size, bool spans,
                                        std::vector<size_t>& on, std::vector<size_t>& off) {
  rng.Shuffle(on);
  rng.Shuffle(off);
  if (!spans) {
    return {off.begin(), off.begin() + static_cast<long>(size)};
  }
  const size_t on_count = std::min(on.size(), size >= 4 ? size_t{2} : size_t{1});
  std::vector<size_t> members(on.begin(), on.begin() + static_cast<long>(on_count));
  members.insert(members.end(), off.begin(), off.begin() + static_cast<long>(size - on_count));
  rng.Shuffle(members);
  return members;
}

}  // namespace

ScenarioResult RunAgreementScenario(ClusterHarness& cluster, ScenarioKind kind,
                                    const ScenarioOptions& options) {
  ScenarioResult res;
  const ScenarioTiming& tm = options.timing;
  const bool machine = kind == ScenarioKind::kMachineFailure;
  const bool churn = kind == ScenarioKind::kChurnDuringCreate;
  Rng fault_rng(options.seed * 7919 + (machine ? 17 : 13));
  char buf[160];
  auto violate = [&res](const char* v) { res.violations.emplace_back(v); };

  const size_t n = cluster.size();
  // Under churn, the upper index half cycles through kill/restart while the
  // groups live entirely in the stable lower half — so group membership is
  // deterministic, while creation traffic still routes through (and repairs
  // around) churning overlay nodes.
  const size_t stable_limit = churn ? n / 2 : n;
  // kMachineFailure: the victim machine, and the live nodes on and off it.
  int victim_machine = -1;
  std::vector<size_t> on;
  std::vector<size_t> off;
  if (machine) {
    const Placement& pl = cluster.placement();
    FUSE_CHECK(pl.NumMachines() >= 2) << "machine failure needs a multi-machine placement";
    victim_machine =
        static_cast<int>(fault_rng.UniformInt(0, static_cast<int64_t>(pl.NumMachines()) - 1));
    cluster.Run([&] {
      for (size_t i = 0; i < n; ++i) {
        if (cluster.IsUp(i)) {
          (cluster.MachineOf(i) == victim_machine ? on : off).push_back(i);
        }
      }
    });
    FUSE_CHECK(!on.empty()) << "victim machine " << victim_machine << " has no live nodes";
    FUSE_CHECK(off.size() >= static_cast<size_t>(options.max_group_size) + 2)
        << "not enough nodes off machine " << victim_machine << " for the scenario";
  } else {
    FUSE_CHECK(stable_limit >= static_cast<size_t>(options.max_group_size) + 2)
        << "cluster too small for scenario";
  }
  if (churn) {
    cluster.StartChurn(stable_limit, n - stable_limit, tm.churn_mean_uptime,
                       tm.churn_mean_downtime);
  }
  const bool tolerant = options.tolerate_create_failures || churn;

  // Group 0 is the fault target and must fire; the rest are along for the
  // at-most-once rule (and, under adversity, for create-verdict coverage).
  // Under kMachineFailure every even group spans the victim machine and must
  // fire, and every odd one is a machine-disjoint control that must stay
  // silent: the machine loss makes its repair paths replace dead delegates
  // WITHOUT notifying.
  AgreementOracle oracle(cluster);
  using Verdict = AgreementOracle::CreateVerdict;
  for (int gi = 0; gi < options.num_groups; ++gi) {
    const size_t size = static_cast<size_t>(
        fault_rng.UniformInt(options.min_group_size, options.max_group_size));
    const bool spans = gi % 2 == 0;
    const size_t g =
        machine ? oracle.AddGroup(MachineGroupMembers(fault_rng, size, spans, on, off),
                                  spans ? AgreementClaim::kMustFire
                                        : AgreementClaim::kMustStaySilent)
                : oracle.AddGroup(cluster.PickLiveNodes(size, stable_limit),
                                  gi == 0 ? AgreementClaim::kMustFire : AgreementClaim::kNone);
    // The single target should exist; under churn or loss a create may fail
    // with a definite error (a routing delegate died, a connection broke), so
    // give it several attempts. kMachineFailure gives every group one.
    const int max_attempts = gi == 0 && !machine ? 8 : 1;
    Verdict verdict = Verdict::kFailed;
    for (int attempt = 0; attempt < max_attempts && verdict != Verdict::kCreated; ++attempt) {
      verdict = oracle.CreateAndWatch(g, tm.create_bound);
      if (verdict == Verdict::kNoVerdict) {
        std::snprintf(buf, sizeof(buf), "create of group %d returned no verdict within bound",
                      gi);
        violate(buf);
        break;
      }
    }
    if (verdict == Verdict::kFailed) {
      ++res.creates_failed;
      if (!tolerant) {
        std::snprintf(buf, sizeof(buf), "create of group %d failed without a fault", gi);
        violate(buf);
      }
    }
    if (verdict == Verdict::kCreated) {
      ++res.groups_created;
    } else if (gi == 0) {
      // No target group. With a clean network that is already a recorded
      // violation; under tolerated adversity the fault/notification phase is
      // vacuous for this seed — report it as skipped rather than failed.
      res.target_skipped = tolerant && verdict == Verdict::kFailed;
      if (churn) {
        cluster.StopChurn();
      }
      return res;
    }
  }
  cluster.AdvanceFor(tm.settle);

  // Apply the fault schedule.
  const std::vector<size_t>& target = oracle.group(0).members;
  switch (kind) {
    case ScenarioKind::kCrashMember:
    case ScenarioKind::kChurnDuringCreate: {
      const size_t victim =
          target[fault_rng.UniformInt(0, static_cast<int64_t>(target.size()) - 1)];
      oracle.NoteCrash(victim);
      cluster.Crash(victim);
      break;
    }
    case ScenarioKind::kPartitionHeal: {
      // Split the group: at least one member on each side (members all on
      // one side of a partition can still talk — that is not a failure).
      // Hosts come from the harness's stable ref table, not live node state,
      // so this works identically when the nodes are remote processes.
      std::vector<HostId> side;
      for (size_t k = 0; k < std::max<size_t>(1, target.size() / 2); ++k) {
        side.push_back(cluster.RefOf(target[k]).host);
      }
      cluster.ApplyFaults([&side](FaultInjector& f) { f.PartitionHosts(side); });
      break;
    }
    case ScenarioKind::kMachineFailure:
      // One machine dies as a single event.
      for (size_t i : on) {
        oracle.NoteCrash(i);
      }
      cluster.CrashMachine(static_cast<size_t>(victim_machine));
      break;
  }

  // Timing half of exactly-once: every live member of every must-fire group
  // hears about the failure within the analytic bound. (For PartitionHeal,
  // both partition sides detect independently — the wait completes while
  // still partitioned.)
  if (!oracle.AwaitCoverage(tm.detect_bound)) {
    violate("notification did not reach every live member of a must-fire group within the bound");
  }

  // Heal mid-run: agreement is one-way, so the group is already doomed and
  // reconnecting the network must not suppress (or duplicate) anything.
  if (kind == ScenarioKind::kPartitionHeal) {
    cluster.ApplyFaults([](FaultInjector& f) { f.ClearPartitions(); });
  }
  if (churn) {
    cluster.StopChurn();
  }
  cluster.AdvanceFor(tm.post_settle);

  // Exactness half, silence of the disjoint controls, and never more than
  // once anywhere.
  AgreementGrade grade = oracle.Grade();
  res.notified = grade.notified;
  res.violations.insert(res.violations.end(), std::make_move_iterator(grade.violations.begin()),
                        std::make_move_iterator(grade.violations.end()));
  return res;
}

}  // namespace fuse
