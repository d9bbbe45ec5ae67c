#include "runtime/agreement_oracle.h"

#include <algorithm>
#include <cstdio>

namespace fuse {

size_t AgreementOracle::AddGroup(std::vector<size_t> members, AgreementClaim claim) {
  auto g = std::make_shared<Group>();
  g->fired.assign(members.size(), 0);
  g->first_fire_us.assign(members.size(), -1);
  g->members = std::move(members);
  g->claim = claim;
  groups_.push_back(std::move(g));
  return groups_.size() - 1;
}

AgreementOracle::CreateVerdict AgreementOracle::CreateAndWatch(size_t gi, Duration bound,
                                                               bool double_count_root) {
  struct State {
    bool done = false;
    Status status;
    FuseId id;
  };
  auto st = std::make_shared<State>();
  const std::shared_ptr<Group> g = groups_[gi];
  cluster_.Run([&] {
    cluster_.CreateGroupInContext(g->members[0], cluster_.RefsOf(g->members),
                                  [st](const Status& s, FuseId id) {
                                    st->status = s;
                                    st->id = id;
                                    st->done = true;
                                  });
  });
  if (!cluster_.Await([st] { return st->done; }, bound)) {
    return CreateVerdict::kNoVerdict;
  }
  if (!st->status.ok()) {
    return CreateVerdict::kFailed;
  }
  g->id = st->id;
  g->created = true;
  Environment* env = &cluster_.env();
  cluster_.Run([&] {
    for (size_t k = 0; k < g->members.size(); ++k) {
      const int per_fire = double_count_root && k == 0 ? 2 : 1;
      cluster_.WatchGroupMemberInContext(g->members[k], g->id, [g, k, env, per_fire] {
        g->fired[k] += per_fire;
        if (g->first_fire_us[k] < 0) {
          g->first_fire_us[k] = env->Now().ToMicros();
        }
      });
    }
  });
  return CreateVerdict::kCreated;
}

void AgreementOracle::NoteTrigger(size_t g) {
  if (groups_[g]->trigger_us < 0) {
    groups_[g]->trigger_us = cluster_.env().Now().ToMicros();
  }
}

bool AgreementOracle::Heard(const Group& g) const {
  return std::any_of(g.fired.begin(), g.fired.end(), [](int c) { return c > 0; });
}

bool AgreementOracle::Covered(const Group& g) const {
  for (size_t k = 0; k < g.members.size(); ++k) {
    if (!EverCrashed(g.members[k]) && g.fired[k] == 0) {
      return false;
    }
  }
  return true;
}

bool AgreementOracle::AwaitCoverage(Duration bound) {
  return cluster_.Await(
      [this] {
        return std::all_of(groups_.begin(), groups_.end(), [this](const auto& g) {
          return !g->created || g->claim != AgreementClaim::kMustFire || Covered(*g);
        });
      },
      bound);
}

bool AgreementOracle::AgreementPending() {
  bool pending = false;
  cluster_.Run([&] {
    pending = std::any_of(groups_.begin(), groups_.end(), [this](const auto& g) {
      return g->created && (g->claim == AgreementClaim::kMustFire || Heard(*g)) && !Covered(*g);
    });
  });
  return pending;
}

AgreementGrade AgreementOracle::Grade() {
  AgreementGrade grade;
  char buf[192];
  auto violate = [&grade, &buf](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    grade.violations.emplace_back(buf);
  };
  cluster_.Run([&] {
    for (size_t gi = 0; gi < groups_.size(); ++gi) {
      const Group& g = *groups_[gi];
      if (!g.created) {
        continue;
      }
      const bool must_fire = g.claim == AgreementClaim::kMustFire;
      const bool heard = Heard(g);
      if (heard) {
        ++grade.groups_fired;
        grade.false_positives += must_fire ? 0 : 1;
      }
      if (g.claim == AgreementClaim::kMustStaySilent && heard) {
        violate("group %zu: notified although no fault touched it", gi);
      }
      // Each never-crashed member must hear when the group must fire, or
      // when it may fire and someone did.
      const bool agree = must_fire || (g.claim == AgreementClaim::kMayFireMustAgree && heard);
      int64_t coverage_us = -1;  // latest first notification of a live member
      for (size_t k = 0; k < g.members.size(); ++k) {
        const size_t m = g.members[k];
        const int count = g.fired[k];
        if (count > 1) {
          violate("group %zu: member %zu heard %d notifications (want at most 1)", gi, m, count);
        }
        if (EverCrashed(m)) {
          continue;
        }
        if (count > 0) {
          coverage_us = std::max(coverage_us, g.first_fire_us[k]);
        }
        if (agree && count == 0) {
          violate(must_fire ? "group %zu: member %zu never heard the required notification"
                            : "group %zu: member %zu missed the notification other members heard",
                  gi, m);
        }
        grade.notified += must_fire && count == 1 ? 1 : 0;
      }
      if (coverage_us >= 0 && g.trigger_us >= 0) {
        grade.max_detection_latency_us =
            std::max(grade.max_detection_latency_us, coverage_us - g.trigger_us);
      }
    }
  });
  return grade;
}

}  // namespace fuse
