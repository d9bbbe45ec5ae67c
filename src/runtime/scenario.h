// Backend-parameterized fault-schedule scenarios.
//
// Each scenario is ONE definition of a full agreement-property experiment,
// written against ClusterHarness, so the identical schedule runs on the
// discrete-event simulator (virtual-time waits) and on the live and process
// wall-clock backends (bounded real-time waits). A scenario keeps only its
// member selection, its fault and its claims; the AgreementOracle
// (runtime/agreement_oracle.h) creates and watches the groups and grades the
// paper's guarantee: exactly-once notification to every live member of a
// failed group, never a duplicate anywhere. This is the paper's section 7
// methodology as an executable artifact: the experiment itself, not just the
// protocol stack, is deployment-agnostic.
//
// Claims per kind: the target (group 0) must fire and the other groups carry
// no claim, except under kMachineFailure, where every group spanning the
// victim machine must fire and every machine-disjoint group must stay silent.
#ifndef FUSE_RUNTIME_SCENARIO_H_
#define FUSE_RUNTIME_SCENARIO_H_

#include <string>
#include <vector>

#include "runtime/cluster.h"

namespace fuse {

enum class ScenarioKind {
  // Crash one member of a watched group: every other member must hear
  // exactly one notification within the bound.
  kCrashMember,
  // Partition a subset of the group's hosts away, let both sides detect,
  // then heal mid-run: agreement is one-way, so reconnecting must neither
  // suppress nor duplicate any member's notification.
  kPartitionHeal,
  // Create groups while background nodes churn (kill/restart cycles), then
  // crash a member: creation must complete with a definite verdict despite
  // churn, and the agreement property must hold on the created groups.
  kChurnDuringCreate,
  // Crash one whole machine (every co-hosted node at once — one SIGKILL on
  // the process backend): every group spanning the machine must notify each
  // of its live members exactly once, while machine-disjoint groups hear
  // nothing — co-hosted repair (dead delegates replaced without notifying)
  // must not turn a machine loss into false positives. Requires a placement
  // with at least two machines.
  kMachineFailure,
};

const char* ScenarioKindName(ScenarioKind kind);

// Wait bounds and fault-schedule knobs. Virtual minutes on the simulator;
// wall-clock seconds against the scaled live protocol constants.
struct ScenarioTiming {
  Duration settle;        // quiet period after group creation
  Duration create_bound;  // bound on one CreateGroup completing
  Duration detect_bound;  // bound on all members hearing the notification
  Duration post_settle;   // extra watch window for duplicates / late fires
  Duration churn_mean_uptime;
  Duration churn_mean_downtime;

  static ScenarioTiming Sim();
  static ScenarioTiming Live();
};

struct ScenarioOptions {
  uint64_t seed = 1;
  int num_groups = 6;
  int min_group_size = 2;
  int max_group_size = 6;
  ScenarioTiming timing = ScenarioTiming::Sim();
  // Set when the network is deliberately adverse (per-link loss): a definite
  // CreateGroup failure is then a legitimate verdict (the paper, section
  // 7.6: transport connections break under such conditions), not a property
  // violation. kChurnDuringCreate implies this. The agreement properties are
  // still enforced in full on every group that did get created.
  bool tolerate_create_failures = false;
};

struct ScenarioResult {
  // Property violations, human-readable; empty means the scenario passed.
  std::vector<std::string> violations;
  int groups_created = 0;
  int creates_failed = 0;  // definite failures (allowed when tolerated)
  int notified = 0;        // exactly-once notifications on the must-fire groups
  // True when even the retried target create failed under tolerated
  // adversity: the fault/notification phase was skipped (vacuous pass).
  bool target_skipped = false;
  bool ok() const { return violations.empty(); }
  std::string ToString() const;
};

// Runs one scenario on an already-Build()-ed cluster. The cluster must have
// at least 8 live nodes (kChurnDuringCreate churns the upper index half and
// draws groups from the stable lower half).
ScenarioResult RunAgreementScenario(ClusterHarness& cluster, ScenarioKind kind,
                                    const ScenarioOptions& options);

}  // namespace fuse

#endif  // FUSE_RUNTIME_SCENARIO_H_
