// AgreementOracle: the one grader of FUSE's guarantee for every fault
// experiment — the scenarios (runtime/scenario.h), the schedule fuzzer
// (fuzz/fuzz_runner.h) and the property suite. It creates and watches the
// experiment's groups through ClusterHarness calls only, so it grades a run
// on any backend, and it checks the paper's distributed one-way agreement
// (section 3): every live member of a failed group hears exactly one
// notification.
//
// The experiment selects members, executes its faults and declares one claim
// per group; the oracle keeps everything else: per-member fire counts and
// first-fire times, each group's trigger time, and the set of nodes that ever
// crashed (a crashed member loses its watch with its incarnation, so claims
// cover never-crashed members only). Whatever its claim, every group must
// notify each member at most once.
#ifndef FUSE_RUNTIME_AGREEMENT_ORACLE_H_
#define FUSE_RUNTIME_AGREEMENT_ORACLE_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "runtime/cluster.h"

namespace fuse {

enum class AgreementClaim {
  kNone,              // only the at-most-once rule
  kMustFire,          // exactly one notification to each never-crashed member
  kMustStaySilent,    // no notification at all
  kMayFireMustAgree,  // if anyone heard, each never-crashed member hears exactly once
};

struct AgreementGrade {
  std::vector<std::string> violations;  // empty = every claim held
  int notified = 0;         // never-crashed must-fire members that heard exactly once
  int groups_fired = 0;     // groups where >= 1 member heard a notification
  int false_positives = 0;  // fired groups that were not claimed must-fire
  int64_t max_detection_latency_us = 0;  // worst trigger -> full-coverage time
};

class AgreementOracle {
 public:
  enum class CreateVerdict { kCreated, kFailed, kNoVerdict };

  struct Group {
    std::vector<size_t> members;  // members[0] roots the create
    AgreementClaim claim = AgreementClaim::kNone;
    FuseId id;
    bool created = false;
    int64_t trigger_us = -1;  // env time of the first fault implicating the group
    // Parallel to `members`; written in the protocol context only.
    std::vector<int> fired;
    std::vector<int64_t> first_fire_us;  // -1 until the member first hears
  };

  explicit AgreementOracle(ClusterHarness& cluster) : cluster_(cluster) {}

  // Registers a group; returns its index. Nothing is sent until CreateAndWatch.
  size_t AddGroup(std::vector<size_t> members, AgreementClaim claim = AgreementClaim::kNone);

  // Issues one CreateGroup rooted at members[0] and waits up to `bound` for
  // its verdict; once created, watches every member. The watches hold the
  // group through a shared_ptr: they stay registered in the (possibly still
  // running) nodes after the experiment returns. May be retried after
  // kFailed. `double_count_root` is the fuzz shrinker's planted bug: the
  // root's watch counts every notification twice.
  CreateVerdict CreateAndWatch(size_t g, Duration bound, bool double_count_root = false);

  void SetClaim(size_t g, AgreementClaim claim) { groups_[g]->claim = claim; }
  // Stamps the group's trigger time (the first call wins).
  void NoteTrigger(size_t g);
  void NoteCrash(size_t node) { crashed_.insert(node); }
  bool EverCrashed(size_t node) const { return crashed_.contains(node); }

  size_t size() const { return groups_.size(); }
  // Read `fired`/`first_fire_us` only from the protocol context.
  const Group& group(size_t g) const { return *groups_[g]; }

  // Waits up to `bound` until every never-crashed member of every created
  // must-fire group has heard; returns whether they all did.
  bool AwaitCoverage(Duration bound);
  // True while some created group that must fire, or that any member heard,
  // still misses a never-crashed member's notification.
  bool AgreementPending();
  // Grades every created group against its claim and the at-most-once rule.
  AgreementGrade Grade();

 private:
  bool Heard(const Group& g) const;
  bool Covered(const Group& g) const;

  ClusterHarness& cluster_;
  std::vector<std::shared_ptr<Group>> groups_;
  std::set<size_t> crashed_;
};

}  // namespace fuse

#endif  // FUSE_RUNTIME_AGREEMENT_ORACLE_H_
