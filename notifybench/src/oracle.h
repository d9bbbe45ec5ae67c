// The exactly-once oracle every workload runs: each expected upcall (every
// live member of every group a fault touched) must arrive exactly once, no
// group a fault did not touch may notify, no group may notify before its
// fault, and every create must get a verdict within its bound. Nothing is
// filtered out: each broken expectation is one failed operation, counted by
// cause.
#ifndef NOTIFYBENCH_ORACLE_H_
#define NOTIFYBENCH_ORACLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/time.h"
#include "fuse/fuse_id.h"
#include "report.h"
#include "runtime/cluster.h"

namespace notifybench {

// Operation counts of one run. attempted = creates + watches; each failed
// create and each watch that broke its expectation is one failed operation.
struct OracleCounts {
  uint64_t creates = 0;
  uint64_t creates_failed = 0;      // failed verdict with no fault in flight
  uint64_t create_no_verdict = 0;   // no verdict within the create bound
  uint64_t watches = 0;
  uint64_t expected_upcalls = 0;
  uint64_t false_notify_disjoint = 0;  // upcall on a group no fault touched
  uint64_t false_notify_prefault = 0;  // upcall before the group's fault
  uint64_t missed_notify = 0;          // expected upcall never arrived
  uint64_t dup_notify = 0;             // expected upcall arrived more than once

  uint64_t attempted() const { return creates + watches; }
  uint64_t failed() const {
    return creates_failed + create_no_verdict + false_notify_disjoint + false_notify_prefault +
           missed_notify + dup_notify;
  }
  void Publish(Report& r) const;
};

// A watched group: the record its watch callbacks write into. Callbacks run in
// the protocol context; the driving thread reads the record only after the
// run's watches went quiet (inside ClusterHarness::Run, or on the simulator's
// single thread).
struct Group {
  fuse::FuseId id;
  std::vector<size_t> members;  // members[0] is the create root
  // Per member: upcalls so far, and the deployment clock and wall clock of the
  // first one.
  std::vector<int> fires;
  std::vector<fuse::TimePoint> first_clock;
  std::vector<Clock::time_point> first_wall;
  // Set by the workload when a fault touches the group: which members must
  // hear it (the live ones), and when the fault was due.
  bool touched = false;
  std::vector<bool> expected;
  fuse::TimePoint fault_clock;
  Clock::time_point fault_wall;
  bool faulted = false;  // the group's fault (or the cycle's crash) happened
  // Set by Grade: where a later upcall is counted, and each member's verdict
  // so far (0 silent as it should be, 1 heard once as it should, 2 failed).
  OracleCounts* graded = nullptr;
  std::vector<uint8_t> verdict;
};

// Sizes g's per-member record to g.members; call before the first watch.
void ResetRecord(Group& g);

// Records an upcall at member g.members[k]: stamps the clocks at its first
// one. Call from the watch callback. Returns true for the member's first. An
// upcall after g was graded is a failure on its own: a duplicate where one
// was expected, a false notification where silence was.
bool RecordFire(fuse::ClusterHarness& cluster, Group& g, size_t k);

// Resets g's record and registers a watch on every member through the
// harness, each inside a "watch" span that closes at its first upcall. Call
// from the protocol context. `on_first` (may be empty) runs in that context
// after a member's first upcall is recorded, with k.
void WatchAll(fuse::ClusterHarness& cluster, const std::shared_ptr<Group>& g, Tracer& tracer,
              uint32_t parent_span, std::function<void(size_t)> on_first = nullptr);

// Marks the fault g is graded against: whether it touched g, and which
// members must then hear it. Call with the fault's clocks.
void MarkFault(Group& g, bool touched, const std::vector<bool>& expected, fuse::TimePoint clock,
               Clock::time_point wall);

// Grades g's watches into `counts` and, for each expected upcall that arrived
// exactly once, appends its latency from the fault on the deployment clock
// (ms) and on the wall clock (ms). Returns the wall latency of the group's
// last such upcall in ms (0 when none arrived). Grade a group once; upcalls
// after that are counted by RecordFire, so `counts` must outlive the watches.
double Grade(Group& g, OracleCounts& counts, std::vector<double>* clock_ms,
             std::vector<double>* wall_ms);

}  // namespace notifybench

#endif  // NOTIFYBENCH_ORACLE_H_
