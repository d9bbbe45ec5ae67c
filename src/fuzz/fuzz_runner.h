// Executes one fault schedule on a cluster and grades the outcome against
// FUSE's guarantee with the AgreementOracle (runtime/agreement_oracle.h), the
// grader the scenarios and the property suite use too.
//
// The runner gives each group one claim from the executed schedule:
//   * must fire — a member crashed, the application signaled the group, or a
//     never-healed partition splits the (never-crashed) members: every
//     never-crashed member must hear exactly one notification;
//   * must stay silent — no fault executed at all: any notification is a
//     violation ("no notification while all members are live and connected");
//   * may fire but must agree — everything else (loss bursts, slow links,
//     skew, healed or partial connectivity faults, non-member crashes): false
//     positives are legal FUSE behavior and are counted as detector QoS, but
//     agreement is still one-way — if any member heard a notification, every
//     never-crashed member must hear exactly one.
// Duplicate notifications are violations everywhere. Groups get one extra
// detection window before a partial delivery is declared a violation.
//
// Detector QoS (Duarte et al.'s diagnosis framing): per run, the number of
// false-positive groups and the worst time from a group's trigger to full
// member coverage are reported alongside the verdict.
//
// RunSchedule(schedule, options) builds the simulator cluster the schedule
// names; RunSchedule(cluster, schedule, options) runs it on any built
// ClusterHarness through harness calls only. Not every layer applies every
// operation: clock skew runs only on the simulator (its per-host clock
// facade); the in-process LiveRuntime checks only blocks and extra delay, so
// it also ignores loss bursts and reorder jitter; the TCP socket fabric
// checks only blocks; the UDP datagram fabric applies all but clock skew.
// An unapplied operation still counts as an executed fault, so it only ever
// loosens a group's claim to may-fire.
#ifndef FUSE_FUZZ_FUZZ_RUNNER_H_
#define FUSE_FUZZ_FUZZ_RUNNER_H_

#include <string>
#include <vector>

#include "fuzz/fault_schedule.h"
#include "runtime/scenario.h"

namespace fuse {

struct FuzzRunOptions {
  // Test hook for the shrinker's own coverage: the first member's failure
  // watch counts every notification twice, so any real notification becomes
  // a duplicate-delivery violation the shrinker must minimize.
  bool plant_duplicate_watch = false;

  // Wait bounds: settle after creation, create_bound per create, and
  // detect_bound for the detection tail (and its one extension). Use
  // ScenarioTiming::Live() on a wall-clock backend.
  ScenarioTiming timing = ScenarioTiming::Sim();
};

struct FuzzRunResult {
  std::vector<std::string> violations;  // empty = schedule passed
  int groups_created = 0;
  int groups_fired = 0;      // groups where >= 1 member heard a notification
  int false_positives = 0;   // fired groups the oracle did not require to fire
  int64_t max_detection_latency_us = 0;  // worst trigger->full-coverage time
  // Deterministic one-line summary (same schedule => byte-identical line).
  std::string log_line;

  bool ok() const { return violations.empty(); }
};

FuzzRunResult RunSchedule(const FaultSchedule& schedule, const FuzzRunOptions& options);
// Runs `schedule` on an already-Build()-ed cluster of any backend. Node
// operands are taken modulo cluster.size().
FuzzRunResult RunSchedule(ClusterHarness& cluster, const FaultSchedule& schedule,
                          const FuzzRunOptions& options);

inline FuzzRunResult RunSchedule(const FaultSchedule& schedule) {
  return RunSchedule(schedule, FuzzRunOptions());
}

}  // namespace fuse

#endif  // FUSE_FUZZ_FUZZ_RUNNER_H_
