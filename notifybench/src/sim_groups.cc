// sim_groups: the classic simulator at scale, driven through GroupService.
// Tens of thousands of groups of four are created, then every group idles
// for a steady window (liveness rides on overlay pings, with default
// FuseParams: the per-ping digest recompute and per-group timers), then one
// whole machine (ten nodes) crashes. No sockets and no second thread: the CPU
// goes to the event queue and to FUSE per-link hashing, timers and repair.
// Simulated-time latencies repeat exactly for a seed, so a change that only
// claims speed but moves them has changed protocol behaviour.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "runtime/scenario.h"
#include "service/group_service.h"
#include "workloads.h"

namespace notifybench {

namespace {

// Groups per second of --seconds: the input size grows with the run length
// but never with the speed of the machine or the code measured.
constexpr int kGroupsPerRunSecond = 1250;
constexpr int kTinyGroups = 300;
// Creates arrive one per simulated millisecond (an open loop in simulated
// time), so a create's latency is the protocol's, not a queue's.
constexpr fuse::Duration kCreateGap = fuse::Duration::Millis(1);
// Simulated length of the steady window: three overlay ping periods.
constexpr fuse::Duration kSteadyWindow = fuse::Duration::Seconds(180);
// Simulated time run between two looks at the speed gauge.
constexpr fuse::Duration kGaugeChunk = fuse::Duration::Seconds(1);
// Nodes per machine under ClusterConfig::LargeScale.
constexpr int kNodesPerMachine = 10;

}  // namespace

RunOutput RunSimGroups(const RunOptions& o) {
  RunOutput out;
  Report& r = out.report;
  Tracer& tr = *o.tracer;
  const SimGroupsShape shape = SimGroupsShapeFor(o.scale);
  const fuse::ScenarioTiming tm = fuse::ScenarioTiming::Sim();
  const long num_groups =
      o.scale.tiny ? kTinyGroups
                   : std::max<long>(1, static_cast<long>(kGroupsPerRunSecond * o.seconds));

  SpeedGauge setup_gauge(SpeedGauge::Kernel::kMemory);
  auto cluster =
      BuildCluster([&] { return MakeSimGroupsCluster(o.scale); }, tr, r, &setup_gauge);
  fuse::ClusterHarness& c = *cluster;
  fuse::Simulation& sim = SimOf(c);
  fuse::Metrics& metrics = sim.metrics();
  fuse::GroupService svc(c);
  fuse::Rng rng(o.seed * 0x9e3779b97f4a7c15ULL + 0x519);

  // 1. Creates through the service's admission window, then a final drain.
  std::vector<std::shared_ptr<Group>> groups;
  std::vector<double> create_ms;
  const MessageCounts msg_create0 = MessageCounts::Of(metrics);
  const uint32_t create_span = tr.Begin("bench", "create_phase");
  SpeedGauge create_gauge(SpeedGauge::Kernel::kMemory);
  const Clock::time_point create_start = Clock::now();
  for (long i = 0; i < num_groups; ++i) {
    auto g = std::make_shared<Group>();
    g->members = rng.SampleIndices(static_cast<size_t>(shape.nodes),
                                   static_cast<size_t>(shape.group_size));
    // Wall time, like every workload's create latency: in simulated time the
    // fixed testbed gives most creates the very same latency. Gauge slices
    // run meanwhile are left out.
    const Clock::time_point due = Clock::now();
    const double gauge_at_due = create_gauge.spent_s();
    const uint32_t span = tr.Begin("fuse", "create", create_span);
    tr.Time("service", "GroupService::Create", create_span, [&] {
      svc.Create(g->members[0], g->members,
                 [&, g, due, gauge_at_due, span](const fuse::Status& s, fuse::FuseId id) {
                   tr.End(span);
                   create_ms.push_back(MillisBetween(due, Clock::now()) -
                                       (create_gauge.spent_s() - gauge_at_due) * 1e3);
                   if (!s.ok()) {
                     ++out.counts.creates_failed;
                     return;
                   }
                   g->id = id;
                   groups.push_back(g);
                 });
    });
    ++out.counts.creates;
    tr.Time("service", "GroupService::Pump", create_span, [&] { svc.Pump(); });
    tr.Time("sim", "AdvanceFor", create_span, [&] { c.AdvanceFor(kCreateGap); });
    create_gauge.MaybeSample();
  }
  // Whatever has no verdict within the bound is counted in create_no_verdict.
  tr.Time("service", "Drain", create_span, [&] { svc.Drain(tm.create_bound); });
  const double create_wall_s = SecondsSince(create_start) - create_gauge.spent_s();
  tr.End(create_span);
  out.counts.create_no_verdict = svc.NumPendingCreates();
  const MessageCounts msg_create1 = MessageCounts::Of(metrics);

  // 2. Watch every member of every group through the service. `outstanding`
  // counts expected upcalls not yet heard once the crash is marked.
  uint64_t outstanding = 0;
  for (const auto& g : groups) {
    ResetRecord(*g);
    for (size_t k = 0; k < g->members.size(); ++k) {
      const uint32_t span = tr.Begin("fuse", "watch");
      svc.Watch(g->members[k], g->id, [&, g, k, span](fuse::FuseId) {
        if (RecordFire(c, *g, k)) {
          tr.End(span);
          // Before the crash is marked, faulted is false: a pre-crash upcall
          // was never counted in `outstanding`.
          if (g->faulted && g->touched && g->expected[k]) {
            --outstanding;
          }
        }
      });
    }
  }

  // 3. Steady window: every group idle.
  const uint64_t events0 = sim.queue().ExecutedCount();
  const MessageCounts msg_steady0 = MessageCounts::Of(metrics);
  const uint32_t steady_span = tr.Begin("bench", "steady_phase");
  SpeedGauge steady_gauge(SpeedGauge::Kernel::kMemory);
  const Clock::time_point steady_start = Clock::now();
  for (fuse::Duration done; done < kSteadyWindow; done += kGaugeChunk) {
    tr.Time("sim", "AdvanceFor", steady_span, [&] { c.AdvanceFor(kGaugeChunk); });
    steady_gauge.MaybeSample();
  }
  const double steady_wall_s = SecondsSince(steady_start) - steady_gauge.spent_s();
  tr.End(steady_span);
  const uint64_t steady_events = sim.queue().ExecutedCount() - events0;
  const MessageCounts msg_steady1 = MessageCounts::Of(metrics);
  size_t fuse_bytes = 0;
  size_t armed = 0;
  c.Run([&] {
    for (size_t i = 0; i < c.size(); ++i) {
      fuse_bytes += c.node(i).fuse()->ApproxGroupBytes();
      armed += c.node(i).fuse()->CountArmedGroupTimers();
    }
  });
  const double live = static_cast<double>(std::max<size_t>(svc.NumLive(), 1));
  const double raw_steady_speed = kSteadyWindow.ToSecondsF() / steady_wall_s;
  r.Set("steady_speed", raw_steady_speed * steady_gauge.Slowdown(), "s/s");
  r.Set("load.machine_slowdown", steady_gauge.Slowdown(), "ratio");
  r.Set("sim.events_per_wall_s", Per(steady_events, steady_wall_s), "1/s");
  r.Set("sim.events_per_sim_s", Per(steady_events, kSteadyWindow.ToSecondsF()), "1/s");
  r.Set("sim.pending_timers", static_cast<double>(sim.queue().PendingCount()), "count");
  r.Set("service.bytes_per_group", static_cast<double>(svc.ApproxServiceBytes()) / live, "B");
  r.Set("fuse.bytes_per_group", static_cast<double>(fuse_bytes) / live, "B");
  r.Set("fuse.armed_timers_per_group", static_cast<double>(armed) / live, "count");
  r.Set("overlay.ping_msgs_per_node_s",
        Per(msg_steady1.pings - msg_steady0.pings, shape.nodes * kSteadyWindow.ToSecondsF()),
        "1/s");
  r.Set("overlay.ping_bytes_per_msg",
        Per(msg_steady1.ping_bytes - msg_steady0.ping_bytes,
            static_cast<double>(msg_steady1.pings - msg_steady0.pings)),
        "B");

  // 4. Crash one full machine.
  const int machines = shape.nodes / kNodesPerMachine;
  const int victim = static_cast<int>(rng.UniformInt(0, machines - 1));
  uint64_t touched = 0;
  for (const auto& g : groups) {
    std::vector<bool> alive(g->members.size());
    for (size_t k = 0; k < alive.size(); ++k) {
      alive[k] = c.MachineOf(g->members[k]) != victim;
    }
    const bool hit = std::find(alive.begin(), alive.end(), false) != alive.end();
    touched += hit ? 1 : 0;
    for (size_t k = 0; hit && k < alive.size(); ++k) {
      // Upcalls heard before the crash are false, not awaited.
      outstanding += alive[k] && g->fires[k] == 0 ? 1 : 0;
    }
    MarkFault(*g, hit, alive, c.env().Now(), Clock::now());
  }
  const Clock::time_point fault_wall = Clock::now();
  for (const auto& g : groups) {
    g->fault_wall = fault_wall;
  }
  const uint64_t crash_events0 = sim.queue().ExecutedCount();
  const MessageCounts msg_crash0 = MessageCounts::Of(metrics);
  const uint32_t crash_span = tr.Begin("bench", "crash_phase");
  tr.Time("runtime", "CrashMachine", crash_span, [&] { c.CrashMachine(victim); });
  r.Set("runtime.crash_call_ms", MillisBetween(fault_wall, Clock::now()), "ms");
  SpeedGauge crash_gauge(SpeedGauge::Kernel::kMemory);
  const fuse::TimePoint detect_deadline = c.env().Now() + tm.detect_bound;
  while (outstanding != 0 && c.env().Now() < detect_deadline) {
    tr.Time("sim", "Await", crash_span,
            [&] { c.Await([&] { return outstanding == 0; }, kGaugeChunk); });
    if (outstanding != 0) {
      crash_gauge.MaybeSample();
    }
  }
  r.Set("sim.crash_events", static_cast<double>(sim.queue().ExecutedCount() - crash_events0),
        "count");
  const MessageCounts msg_crash1 = MessageCounts::Of(metrics);
  tr.Time("sim", "AdvanceFor", crash_span, [&] { c.AdvanceFor(tm.post_settle); });
  tr.End(crash_span);

  std::vector<double> notify_ms;
  std::vector<double> notify_wall_ms;
  for (const auto& g : groups) {
    Grade(*g, out.counts, &notify_ms, &notify_wall_ms);
  }

  r.Set("notify_p50_ms", Percentile(notify_ms, 50), "ms");
  r.Set("notify_p99_ms", Percentile(notify_ms, 99), "ms");
  // Wall figures at the reference machine speed (SpeedGauge).
  r.Set("create_p50_ms", Percentile(create_ms, 50) / create_gauge.Slowdown(), "ms");
  r.Set("create_p99_ms", Percentile(create_ms, 99) / create_gauge.Slowdown(), "ms");
  const double raw_notify_wall_s =
      notify_wall_ms.empty()
          ? 0
          : *std::max_element(notify_wall_ms.begin(), notify_wall_ms.end()) / 1e3 -
                crash_gauge.spent_s();
  r.Set("notify_wall_s", raw_notify_wall_s / crash_gauge.Slowdown(), "s");
  const double raw_creates_per_s = Per(groups.size(), create_wall_s);
  r.Set("creates_per_s", raw_creates_per_s * create_gauge.Slowdown(), "1/s");
  r.Set("service.create_wall_s", create_wall_s, "s");
  r.Set("fuse.create_msgs_per_group",
        Per(msg_create1.create - msg_create0.create, static_cast<double>(groups.size())), "count");
  r.Set("fuse.notify_msgs_per_group",
        Per(msg_crash1.notify - msg_crash0.notify, static_cast<double>(touched)), "count");
  r.Set("fuse.repair_msgs_per_crash", static_cast<double>(msg_crash1.repair - msg_crash0.repair),
        "count");
  out.counts.Publish(r);

  // The simulator's own timing layers.
  const std::string no_wall = "simulated time: no wall-clock loop to round-trip";
  r.Unavailable("runtime.run_rtt_us", "us", no_wall);
  r.Unavailable("runtime.restart_s", "s", "the crashed machine is not restarted");
  const std::string no_sockets = "simulated fabric: no sockets, datagrams or syscalls";
  r.Unavailable("transport.syscalls_per_msg", "count", no_sockets);
  r.Unavailable("transport.records_per_datagram", "count", no_sockets);
  r.Unavailable("transport.retransmit_ratio", "share", no_sockets);
  r.Unavailable("transport.acks_deduped", "count", no_sockets);
  std::printf("sim_groups: %zu groups on %d nodes, %llu touched by the crash of machine %d, "
              "%zu expected upcalls timed\n",
              groups.size(), shape.nodes, static_cast<unsigned long long>(touched), victim,
              notify_ms.size());
  std::printf("sim_groups raw wall figures: creates_per_s %.1f (slowdown %.3f), steady_speed "
              "%.3f (slowdown %.3f), notify_wall_s %.3f (slowdown %.3f)\n",
              raw_creates_per_s, create_gauge.Slowdown(), raw_steady_speed,
              steady_gauge.Slowdown(), raw_notify_wall_s, crash_gauge.Slowdown());
  cluster.reset();
  return out;
}

}  // namespace notifybench
