#include "fuzz/fuzz_runner.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <memory>
#include <set>

#include "runtime/agreement_oracle.h"
#include "runtime/sharded_sim_cluster.h"
#include "runtime/sim_cluster.h"

namespace fuse {

FuzzRunResult RunSchedule(const FaultSchedule& schedule, const FuzzRunOptions& options) {
  ClusterConfig cfg;
  cfg.num_nodes = std::max(schedule.num_nodes, 4);
  cfg.seed = schedule.seed * 2654435761ULL + 0x9e3779b9ULL;
  cfg.topology.num_as = 40;  // small physical topology: schedule throughput
  cfg.cost = CostModel::Simulator();
  cfg.num_shards = options.num_shards;
  cfg.threads = options.threads;
  const std::unique_ptr<ClusterHarness> cluster = MakeSimCluster(cfg);
  cluster->Build();
  return RunSchedule(*cluster, schedule, options);
}

FuzzRunResult RunSchedule(ClusterHarness& cluster, const FaultSchedule& schedule,
                          const FuzzRunOptions& options) {
  FuzzRunResult res;
  char buf[192];
  const int n = static_cast<int>(cluster.size());
  const ScenarioTiming& tm = options.timing;
  auto is_up = [&cluster](size_t i) {
    bool up = false;
    cluster.Run([&] { up = cluster.IsUp(i); });
    return up;
  };

  // Group membership is derived from the schedule seed alone (not the sim
  // rng), so the shrinker can re-run reduced schedules comparably.
  Rng group_rng(schedule.seed ^ 0xfacefeedcafef00dULL);
  AgreementOracle oracle(cluster);
  for (int gi = 0; gi < schedule.num_groups; ++gi) {
    const size_t size = static_cast<size_t>(group_rng.UniformInt(2, std::min<int64_t>(5, n)));
    std::vector<size_t> members = group_rng.SampleIndices(static_cast<size_t>(n), size);
    std::sort(members.begin(), members.end());
    oracle.AddGroup(std::move(members));
  }

  // Create every group on the clean pre-fault network; a failure here is a
  // violation in its own right (creation must succeed without faults).
  for (int gi = 0; gi < schedule.num_groups; ++gi) {
    const AgreementOracle::CreateVerdict verdict = oracle.CreateAndWatch(
        static_cast<size_t>(gi), tm.create_bound, options.plant_duplicate_watch);
    if (verdict == AgreementOracle::CreateVerdict::kCreated) {
      ++res.groups_created;
    } else {
      std::snprintf(buf, sizeof(buf), "group %d: create %s on a clean network", gi,
                    verdict == AgreementOracle::CreateVerdict::kFailed ? "failed"
                                                                       : "returned no verdict");
      res.violations.emplace_back(buf);
    }
  }
  cluster.AdvanceFor(tm.settle);

  // --- execute the fault clauses in time order ---
  // `shadow` mirrors only the partition state: a partition that still splits
  // two (never-crashed) members when the run ends cuts every path between
  // them, so the groups it splits must fire. Pair/one-way blocks are NOT
  // mirrored — they cut single links, which the delegate tree may legally
  // route around, so they only ever make a group may-fire.
  FaultInjector shadow;
  bool any_fault_executed = false;
  int64_t cursor_us = 0;
  auto host_of = [&cluster](uint32_t idx) { return cluster.RefOf(idx).host; };
  auto must_fire = [&oracle](size_t g) {
    oracle.SetClaim(g, AgreementClaim::kMustFire);
    oracle.NoteTrigger(g);
  };
  auto split = [&](size_t g) {
    // Two never-crashed members the current partition state separates.
    const std::vector<size_t>& m = oracle.group(g).members;
    for (size_t i = 0; i < m.size(); ++i) {
      for (size_t j = i + 1; j < m.size(); ++j) {
        if (!oracle.EverCrashed(m[i]) && !oracle.EverCrashed(m[j]) &&
            shadow.IsBlocked(host_of(static_cast<uint32_t>(m[i])),
                             host_of(static_cast<uint32_t>(m[j])))) {
          return true;
        }
      }
    }
    return false;
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
    switch (c.op) {
      case FaultOp::kCrash: {
        if (!is_up(c.a)) {
          break;  // already down: clause is a no-op, not an error
        }
        cluster.Crash(c.a);
        oracle.NoteCrash(c.a);
        any_fault_executed = true;
        for (size_t g = 0; g < oracle.size(); ++g) {
          const std::vector<size_t>& m = oracle.group(g).members;
          if (oracle.group(g).created && std::count(m.begin(), m.end(), c.a) > 0) {
            must_fire(g);
          }
        }
        break;
      }
      case FaultOp::kRestart:
        if (!is_up(c.a)) {
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
          // Stamp the trigger of every group the partition now splits; the
          // must-fire claim comes from the FINAL partition state, below.
          for (size_t g = 0; g < oracle.size(); ++g) {
            if (oracle.group(g).created && split(g)) {
              oracle.NoteTrigger(g);
            }
          }
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
        const size_t g = c.a % oracle.size();
        const AgreementOracle::Group& grp = oracle.group(g);
        if (!grp.created) {
          break;
        }
        // Signal from the first member that never crashed (it still holds
        // the group state); skip if every member has crashed.
        const auto signaler =
            std::find_if(grp.members.begin(), grp.members.end(),
                         [&](size_t m) { return !oracle.EverCrashed(m) && is_up(m); });
        if (signaler == grp.members.end()) {
          break;
        }
        cluster.Run([&] { cluster.SignalGroupInContext(*signaler, grp.id); });
        must_fire(g);
        any_fault_executed = true;
        break;
      }
    }
  }

  // Final claims. A split that was never healed breaks the delegate tree
  // across the boundary, so both sides must detect and notify. With no fault
  // executed at all nothing may fire; anything else may fire but must agree.
  for (size_t g = 0; g < oracle.size(); ++g) {
    if (oracle.group(g).claim != AgreementClaim::kMustFire) {
      oracle.SetClaim(g, split(g)                ? AgreementClaim::kMustFire
                         : any_fault_executed ? AgreementClaim::kMayFireMustAgree
                                              : AgreementClaim::kMustStaySilent);
    }
  }

  // --- detection tail + oracle ---
  cluster.AdvanceFor(tm.detect_bound);
  if (oracle.AgreementPending()) {
    cluster.AdvanceFor(tm.detect_bound);
  }
  AgreementGrade grade = oracle.Grade();
  res.violations.insert(res.violations.end(), std::make_move_iterator(grade.violations.begin()),
                        std::make_move_iterator(grade.violations.end()));
  res.groups_fired = grade.groups_fired;
  res.false_positives = grade.false_positives;
  res.max_detection_latency_us = grade.max_detection_latency_us;

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
