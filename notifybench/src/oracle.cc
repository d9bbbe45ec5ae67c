#include "oracle.h"

#include <algorithm>
#include <utility>

namespace notifybench {

void OracleCounts::Publish(Report& r) const {
  r.Set("runtime.create_no_verdict", static_cast<double>(create_no_verdict), "count");
  r.Set("fuse.false_notify_disjoint", static_cast<double>(false_notify_disjoint), "count");
  r.Set("fuse.false_notify_prefault", static_cast<double>(false_notify_prefault), "count");
  r.Set("fuse.missed_notify", static_cast<double>(missed_notify), "count");
  r.Set("fuse.dup_notify", static_cast<double>(dup_notify), "count");
}

void ResetRecord(Group& g) {
  const size_t n = g.members.size();
  g.fires.assign(n, 0);
  g.first_clock.assign(n, fuse::TimePoint());
  g.first_wall.assign(n, Clock::time_point());
  g.expected.assign(n, false);
}

bool RecordFire(fuse::ClusterHarness& cluster, Group& g, size_t k) {
  const Clock::time_point wall = Clock::now();
  if (g.graded != nullptr && g.verdict[k] != 2) {
    (g.verdict[k] == 1 ? g.graded->dup_notify : g.graded->false_notify_disjoint)++;
    g.verdict[k] = 2;
  }
  if (g.fires[k]++ != 0) {
    return false;
  }
  g.first_wall[k] = wall;
  g.first_clock[k] = cluster.env().Now();
  return true;
}

void WatchAll(fuse::ClusterHarness& cluster, const std::shared_ptr<Group>& g, Tracer& tracer,
              uint32_t parent_span, std::function<void(size_t)> on_first) {
  ResetRecord(*g);
  auto first = std::make_shared<std::function<void(size_t)>>(std::move(on_first));
  for (size_t k = 0; k < g->members.size(); ++k) {
    const uint32_t span = tracer.Begin("fuse", "watch", parent_span);
    // The callback holds the group: a late upcall after the run graded it
    // must find the record alive.
    cluster.WatchGroupMemberInContext(g->members[k], g->id, [&cluster, &tracer, g, k, first, span] {
      if (RecordFire(cluster, *g, k)) {
        tracer.End(span);
        if (*first) {
          (*first)(k);
        }
      }
    });
  }
}

void MarkFault(Group& g, bool touched, const std::vector<bool>& expected, fuse::TimePoint clock,
               Clock::time_point wall) {
  g.faulted = true;
  g.touched = touched;
  g.expected = expected;
  g.fault_clock = clock;
  g.fault_wall = wall;
}

double Grade(Group& g, OracleCounts& counts, std::vector<double>* clock_ms,
             std::vector<double>* wall_ms) {
  double last_ms = 0;
  counts.watches += g.members.size();
  g.graded = &counts;
  g.verdict.assign(g.members.size(), 2);
  for (size_t k = 0; k < g.members.size(); ++k) {
    const bool expected = g.touched && g.expected[k];
    counts.expected_upcalls += expected ? 1 : 0;
    if (g.fires[k] == 0) {
      counts.missed_notify += expected ? 1 : 0;
      g.verdict[k] = expected ? 2 : 0;
      continue;
    }
    if (!g.faulted || g.first_clock[k] < g.fault_clock) {
      counts.false_notify_prefault++;
    } else if (!expected) {
      // Either the group was untouched, or the member itself was on the
      // killed machine: nobody should have heard this.
      counts.false_notify_disjoint++;
    } else if (g.fires[k] > 1) {
      counts.dup_notify++;
    } else {
      g.verdict[k] = 1;
      const double wall = MillisBetween(g.fault_wall, g.first_wall[k]);
      if (clock_ms != nullptr) {
        clock_ms->push_back((g.first_clock[k] - g.fault_clock).ToMillisF());
      }
      if (wall_ms != nullptr) {
        wall_ms->push_back(wall);
      }
      last_ms = std::max(last_ms, wall);
    }
  }
  return last_ms;
}

}  // namespace notifybench
