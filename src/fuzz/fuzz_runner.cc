#include "fuzz/fuzz_runner.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>
#include <set>

#include "runtime/sharded_sim_cluster.h"
#include "runtime/sim_cluster.h"

namespace fuse {

namespace {

// Per-group observation state. Shared with the failure-watch closures, which
// stay registered in the nodes for the cluster's whole lifetime.
struct GroupObs {
  FuseId id;
  std::vector<size_t> members;
  bool created = false;
  std::map<size_t, int> fired;             // member -> notification count
  std::map<size_t, int64_t> first_fire_us; // member -> first notification time
  // Oracle classification, filled during clause execution.
  bool must_fire = false;
  int64_t trigger_us = -1;  // first clause implicating this group
};

void NoteTrigger(GroupObs& g, int64_t now_us) {
  if (g.trigger_us < 0) {
    g.trigger_us = now_us;
  }
}

}  // namespace

FuzzRunResult RunSchedule(const FaultSchedule& schedule, const FuzzRunOptions& options) {
  FuzzRunResult res;
  char buf[192];
  auto violate = [&res, &buf](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    res.violations.emplace_back(buf);
  };

  const int n = std::max(schedule.num_nodes, 4);
  ClusterConfig cfg;
  cfg.num_nodes = n;
  cfg.seed = schedule.seed * 2654435761ULL + 0x9e3779b9ULL;
  cfg.topology.num_as = 40;  // small physical topology: schedule throughput
  cfg.cost = CostModel::Simulator();
  cfg.num_shards = options.num_shards;
  cfg.threads = options.threads;
  const std::unique_ptr<ClusterHarness> cluster_ptr = MakeSimCluster(cfg);
  ClusterHarness& cluster = *cluster_ptr;
  cluster.Build();

  // Group membership is derived from the schedule seed alone (not the sim
  // rng), so the shrinker can re-run reduced schedules comparably.
  Rng group_rng(schedule.seed ^ 0xfacefeedcafef00dULL);
  std::vector<std::shared_ptr<GroupObs>> groups;
  for (int gi = 0; gi < schedule.num_groups; ++gi) {
    auto g = std::make_shared<GroupObs>();
    const size_t size =
        static_cast<size_t>(group_rng.UniformInt(2, std::min<int64_t>(5, n)));
    for (size_t idx : group_rng.SampleIndices(static_cast<size_t>(n), size)) {
      g->members.push_back(idx);
    }
    std::sort(g->members.begin(), g->members.end());
    groups.push_back(std::move(g));
  }

  // Create every group on the clean pre-fault network; a failure here is a
  // violation in its own right (creation must succeed without faults).
  for (int gi = 0; gi < schedule.num_groups; ++gi) {
    GroupObs& g = *groups[gi];
    struct CreateState {
      bool done = false;
      Status status;
      FuseId id;
    };
    auto st = std::make_shared<CreateState>();
    cluster.Run([&] {
      cluster.CreateGroupInContext(g.members[0], cluster.RefsOf(g.members),
                                   [st](const Status& s, FuseId id) {
                                     st->status = s;
                                     st->id = id;
                                     st->done = true;
                                   });
    });
    if (!cluster.Await([st] { return st->done; }, options.create_bound)) {
      violate("group %d: create returned no verdict on a clean network", gi);
      continue;
    }
    if (!st->status.ok()) {
      violate("group %d: create failed on a clean network", gi);
      continue;
    }
    g.id = st->id;
    g.created = true;
    ++res.groups_created;
    auto gp = groups[gi];
    cluster.Run([&] {
      for (size_t m : gp->members) {
        // The planted bug records every notification to the first member
        // twice, as if the delivery layer had duplicated it (the protocol's
        // own handler slot is replace-on-register, so a genuine double
        // registration would mask rather than duplicate).
        const int per_fire =
            options.plant_duplicate_watch && m == gp->members[0] ? 2 : 1;
        cluster.WatchGroupMemberInContext(m, gp->id, [gp, m, &cluster, per_fire] {
          gp->fired[m] += per_fire;
          if (!gp->first_fire_us.contains(m)) {
            gp->first_fire_us[m] = cluster.env().Now().ToMicros();
          }
        });
      }
    });
  }
  cluster.AdvanceFor(options.settle);

  // --- execute the fault clauses in time order ---
  // `shadow` mirrors only the partition state: a partition that still splits
  // two (never-crashed) members when the run ends cuts every path between
  // them, so the groups it splits are must-fire. Pair/one-way blocks are NOT
  // mirrored — they cut single links, which the delegate tree may legally
  // route around, so they only ever make a group may-fire.
  FaultInjector shadow;
  std::set<size_t> ever_crashed;
  bool any_fault_executed = false;
  const TimePoint fault_start = cluster.env().Now();
  int64_t cursor_us = 0;
  auto host_of = [&cluster](uint32_t idx) { return cluster.RefOf(idx).host; };

  auto note_split_groups = [&] {
    // After a partition-state change: any group with two never-crashed
    // members now split gets its trigger stamped (classification to
    // must-fire happens at the end, from the FINAL partition state).
    const int64_t now_us = (cluster.env().Now() - fault_start).ToMicros();
    for (auto& g : groups) {
      if (!g->created) {
        continue;
      }
      for (size_t i = 0; i < g->members.size(); ++i) {
        for (size_t j = i + 1; j < g->members.size(); ++j) {
          if (ever_crashed.contains(g->members[i]) || ever_crashed.contains(g->members[j])) {
            continue;
          }
          if (shadow.IsBlocked(host_of(static_cast<uint32_t>(g->members[i])),
                               host_of(static_cast<uint32_t>(g->members[j])))) {
            NoteTrigger(*g, now_us);
          }
        }
      }
    }
  };

  for (const FaultClause& raw : schedule.clauses) {
    FaultClause c = raw;
    // Clamp node operands so shrunk schedules (smaller clusters) stay valid.
    const auto nidx = [&](uint32_t v) { return v == kAllNodes ? v : v % static_cast<uint32_t>(n); };
    c.a = nidx(c.a);
    c.b = nidx(c.b);
    if (c.at_us > cursor_us) {
      cluster.AdvanceFor(Duration::Micros(c.at_us - cursor_us));
      cursor_us = c.at_us;
    }
    const int64_t now_us = (cluster.env().Now() - fault_start).ToMicros();
    switch (c.op) {
      case FaultOp::kCrash: {
        if (!cluster.IsUp(c.a)) {
          break;  // already down: clause is a no-op, not an error
        }
        cluster.Crash(c.a);
        ever_crashed.insert(c.a);
        any_fault_executed = true;
        for (auto& g : groups) {
          if (g->created && std::count(g->members.begin(), g->members.end(), c.a) > 0) {
            g->must_fire = true;
            NoteTrigger(*g, now_us);
          }
        }
        break;
      }
      case FaultOp::kRestart:
        if (!cluster.IsUp(c.a)) {
          cluster.RestartAsync(c.a);
          any_fault_executed = true;
        }
        break;
      case FaultOp::kBlockPair:
        if (c.a != c.b) {
          cluster.ApplyFaults(
              [&](FaultInjector& f) { f.BlockPair(host_of(c.a), host_of(c.b)); });
          any_fault_executed = true;
        }
        break;
      case FaultOp::kUnblockPair:
        cluster.ApplyFaults([&](FaultInjector& f) { f.UnblockPair(host_of(c.a), host_of(c.b)); });
        break;
      case FaultOp::kBlockOneWay:
        if (c.a != c.b) {
          cluster.ApplyFaults(
              [&](FaultInjector& f) { f.BlockOneWay(host_of(c.a), host_of(c.b)); });
          any_fault_executed = true;
        }
        break;
      case FaultOp::kUnblockOneWay:
        cluster.ApplyFaults(
            [&](FaultInjector& f) { f.UnblockOneWay(host_of(c.a), host_of(c.b)); });
        break;
      case FaultOp::kPartition: {
        std::vector<HostId> side;
        std::set<uint32_t> seen;
        for (uint32_t m : c.group) {
          const uint32_t idx = m % static_cast<uint32_t>(n);
          if (seen.insert(idx).second) {
            side.push_back(host_of(idx));
          }
        }
        if (!side.empty() && side.size() < static_cast<size_t>(n)) {
          cluster.ApplyFaults([&side](FaultInjector& f) { f.PartitionHosts(side); });
          shadow.PartitionHosts(side);
          any_fault_executed = true;
          note_split_groups();
        }
        break;
      }
      case FaultOp::kHealPartitions:
        cluster.ApplyFaults([](FaultInjector& f) { f.ClearPartitions(); });
        shadow.ClearPartitions();
        break;
      case FaultOp::kLossBurst: {
        const HostId scope = c.a == kAllNodes ? HostId() : host_of(c.a);
        const TimePoint from = cluster.env().Now();
        const TimePoint until = from + Duration::Micros(std::max<int64_t>(c.dur_us, 1));
        const double p = std::clamp(c.param, 0.0, 1.0);
        cluster.ApplyFaults(
            [&](FaultInjector& f) { f.AddLossBurst(scope, from, until, p); });
        any_fault_executed = true;
        break;
      }
      case FaultOp::kSlowHost:
        cluster.ApplyFaults(
            [&](FaultInjector& f) { f.SetHostDelay(host_of(c.a), Duration::MillisF(c.param)); });
        any_fault_executed = true;
        break;
      case FaultOp::kSlowLink:
        if (c.a != c.b) {
          cluster.ApplyFaults([&](FaultInjector& f) {
            f.SetLinkDelay(host_of(c.a), host_of(c.b), Duration::MillisF(c.param));
          });
          any_fault_executed = true;
        }
        break;
      case FaultOp::kClockSkew:
        cluster.ApplyFaults([&](FaultInjector& f) {
          f.SetClockRate(host_of(c.a), std::clamp(c.param, 0.1, 10.0));
        });
        any_fault_executed = true;
        break;
      case FaultOp::kReorderJitter: {
        const HostId scope = c.a == kAllNodes ? HostId() : host_of(c.a);
        cluster.ApplyFaults(
            [&](FaultInjector& f) { f.SetReorderJitter(scope, Duration::MillisF(c.param)); });
        any_fault_executed = true;
        break;
      }
      case FaultOp::kSignalFailure: {
        if (schedule.num_groups == 0) {
          break;
        }
        GroupObs& g = *groups[c.a % groups.size()];
        if (!g.created) {
          break;
        }
        // Signal from the first member that never crashed (it still holds
        // the group state); skip if every member has crashed.
        size_t signaler = g.members.size();
        for (size_t m : g.members) {
          if (!ever_crashed.contains(m) && cluster.IsUp(m)) {
            signaler = m;
            break;
          }
        }
        if (signaler == g.members.size()) {
          break;
        }
        cluster.Run([&] { cluster.node(signaler).fuse()->SignalFailure(g.id); });
        g.must_fire = true;
        NoteTrigger(g, now_us);
        any_fault_executed = true;
        break;
      }
    }
  }

  // Final partition state decides the connectivity half of must-fire: a
  // split that was never healed breaks the delegate tree across the
  // boundary, so both sides must detect and notify.
  for (auto& g : groups) {
    if (!g->created || g->must_fire) {
      continue;
    }
    for (size_t i = 0; i < g->members.size() && !g->must_fire; ++i) {
      for (size_t j = i + 1; j < g->members.size(); ++j) {
        if (ever_crashed.contains(g->members[i]) || ever_crashed.contains(g->members[j])) {
          continue;
        }
        if (shadow.IsBlocked(host_of(static_cast<uint32_t>(g->members[i])),
                             host_of(static_cast<uint32_t>(g->members[j])))) {
          g->must_fire = true;
          break;
        }
      }
    }
  }

  // --- detection tail + oracle ---
  cluster.AdvanceFor(options.detect_bound);
  auto incomplete = [&](const GroupObs& g) {
    // A group that must fire, or has partially fired, and is still missing a
    // never-crashed member's notification.
    bool any_fired = false;
    bool all_fired = true;
    for (size_t m : g.members) {
      if (ever_crashed.contains(m)) {
        continue;
      }
      const auto it = g.fired.find(m);
      if (it != g.fired.end() && it->second > 0) {
        any_fired = true;
      } else {
        all_fired = false;
      }
    }
    return (g.must_fire || any_fired) && !all_fired;
  };
  bool needs_extension = false;
  cluster.Run([&] {
    for (const auto& g : groups) {
      if (g->created && incomplete(*g)) {
        needs_extension = true;
      }
    }
  });
  if (needs_extension) {
    cluster.AdvanceFor(options.detect_bound);
  }

  cluster.Run([&] {
    for (size_t gi = 0; gi < groups.size(); ++gi) {
      GroupObs& g = *groups[gi];
      if (!g.created) {
        continue;
      }
      bool any_fired = false;
      int64_t full_coverage_us = -1;
      for (size_t m : g.members) {
        const auto it = g.fired.find(m);
        const int count = it == g.fired.end() ? 0 : it->second;
        if (count > 1) {
          violate("group %zu: member %zu heard %d notifications (want at most 1)", gi, m, count);
        }
        if (count > 0) {
          any_fired = true;
        }
        if (ever_crashed.contains(m)) {
          continue;  // lost its watch state with its incarnation
        }
        if (count > 0) {
          full_coverage_us = std::max(full_coverage_us, g.first_fire_us[m]);
        }
      }
      size_t live_members = 0;
      for (size_t m : g.members) {
        if (!ever_crashed.contains(m)) {
          ++live_members;
        }
      }
      if (any_fired) {
        ++res.groups_fired;
        if (!g.must_fire) {
          ++res.false_positives;
        }
      }
      if (!any_fault_executed && any_fired) {
        violate("group %zu: notification while all members were live and connected", gi);
      }
      if (live_members == 0) {
        continue;  // nobody left holding watch state: agreement is vacuous
      }
      if (g.must_fire || any_fired) {
        for (size_t m : g.members) {
          if (ever_crashed.contains(m)) {
            continue;
          }
          const auto it = g.fired.find(m);
          const int count = it == g.fired.end() ? 0 : it->second;
          if (count < 1) {
            violate(g.must_fire
                        ? "group %zu: member %zu never heard the required notification"
                        : "group %zu: member %zu missed the notification other members heard",
                    gi, m);
          }
        }
      }
      if (full_coverage_us >= 0 && g.trigger_us >= 0) {
        const int64_t latency =
            full_coverage_us - (fault_start.ToMicros() + g.trigger_us);
        if (latency > res.max_detection_latency_us) {
          res.max_detection_latency_us = latency;
        }
      }
    }
  });

  std::snprintf(buf, sizeof(buf),
                "run seed=%" PRIu64
                " nodes=%d groups=%d clauses=%zu created=%d fired=%d fp=%d maxlat_us=%" PRId64
                " verdict=%s(%zu)",
                schedule.seed, schedule.num_nodes, schedule.num_groups, schedule.clauses.size(),
                res.groups_created, res.groups_fired, res.false_positives,
                res.max_detection_latency_us, res.ok() ? "ok" : "VIOLATION",
                res.violations.size());
  res.log_line = buf;
  return res;
}

}  // namespace fuse
