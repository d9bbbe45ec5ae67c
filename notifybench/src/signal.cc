// signal: group lifecycles on the in-process wall-clock runtime over real TCP
// between machines, with no faults. A fixed number of clients each run a
// closed loop: create a group of four, watch every member on the verdict,
// signal the group's failure from the root (SignalFailure), wait for every
// member's upcall, start over. Creation and explicit signalling are bound by
// messages and CPU, not timers (paper Figs. 7 and 8): the loop thread, the TCP
// fabric and FUSE create/notify do the work while detection and repair idle.
//
// A closed loop that keeps the loop thread busy, not an open loop at a rate
// it can keep up with: an idle loop's sub-millisecond latencies are set by
// how fast the host wakes a thread, which on a shared machine swung p99 from
// 0.5 ms to 8 ms between runs of the same seed. Saturated, each latency is the
// queue of protocol work ahead of it, which is what CPU and transport changes
// move.
//
// LiveCluster, not ProcessCluster: the harness's SignalGroupInContext needs
// in-process nodes and is a silent no-op on worker processes (NOTES.md,
// defect b). Creates and watches go through the harness, not GroupService
// (defect a).
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "runtime/scenario.h"
#include "workloads.h"

namespace notifybench {

namespace {

// Lifecycles in flight at once.
constexpr int kClients = 128;
// Spacing of the empty-Run round-trip probes from the driving thread.
constexpr auto kProbeEvery = std::chrono::milliseconds(20);

// Loop-thread state of the clients.
struct LoopState {
  bool stopping = false;
  int active = kClients;  // clients still looping
  uint64_t creates = 0;
  uint64_t creates_ok = 0;
  uint64_t creates_failed = 0;
  uint64_t late_verdicts = 0;  // verdicts that came after the create bound
  uint64_t live_groups = 0;    // created, not yet heard by every member
  uint64_t signalled = 0;
  WindowedSamples create_ms;  // by the second the create was sent in
  WindowedSamples notify_ms;  // by the second the signal was sent in
  // Signalled groups not yet heard by every member. A group is graded as
  // soon as it is, so the oracle's memory does not grow with the throughput.
  std::unordered_map<const Group*, std::shared_ptr<Group>> pending;
  std::function<void()> start;  // begins one lifecycle
};

}  // namespace

RunOutput RunSignal(const RunOptions& o) {
  RunOutput out;
  Report& r = out.report;
  Tracer& tr = *o.tracer;
  const SignalShape shape = SignalShapeFor(o.scale);
  const fuse::ScenarioTiming tm = fuse::ScenarioTiming::Live();

  auto cluster = BuildCluster([&] { return MakeSignalCluster(o.scale); }, tr, r);
  fuse::LiveCluster& c = *cluster;

  // Idle window: every node up, no groups, liveness pings only.
  const fuse::TimePoint idle_clock = c.env().Now();
  const Clock::time_point idle_wall = Clock::now();
  tr.Time("runtime", "AdvanceFor", 0, [&] { c.AdvanceFor(tm.settle); });
  r.Set("steady_speed", (c.env().Now() - idle_clock).ToSecondsF() / SecondsSince(idle_wall),
        "s/s");

  fuse::Rng rng(o.seed * 0x9e3779b97f4a7c15ULL + 0x516e);  // drawn on the loop thread only
  LoopState st;  // touched only in the protocol context
  const uint32_t loop_span = tr.Begin("bench", "closed_loop");
  const Clock::time_point start = Clock::now();
  const auto second_of = [start](Clock::time_point t) {
    return static_cast<size_t>(std::chrono::duration<double>(t - start).count());
  };
  // The next lifecycle is posted, not called, so completions never nest.
  const auto again = [&] { c.env().Schedule(fuse::Duration::Zero(), [&] { st.start(); }); };

  // One lifecycle; every step runs in the protocol context.
  st.start = [&] {
    if (st.stopping) {
      --st.active;
      return;
    }
    auto g = std::make_shared<Group>();
    g->members = rng.SampleIndices(static_cast<size_t>(shape.nodes),
                                   static_cast<size_t>(shape.group_size));
    ++st.creates;
    const uint32_t span = tr.Begin("fuse", "create", loop_span);
    const Clock::time_point sent = Clock::now();
    c.CreateGroupInContext(
        g->members[0], c.RefsOf(g->members),
        [&, g, span, sent](const fuse::Status& s, fuse::FuseId id) {
          tr.End(span);
          const double ms = MillisBetween(sent, Clock::now());
          st.create_ms.Add(second_of(sent), ms);
          st.late_verdicts += ms > tm.create_bound.ToMillisF() ? 1 : 0;
          if (!s.ok()) {
            ++st.creates_failed;
            again();
            return;
          }
          ++st.creates_ok;
          ++st.live_groups;
          g->id = id;
          auto heard = std::make_shared<size_t>(0);
          WatchAll(c, g, tr, loop_span, [&, g, heard](size_t) {
            if (g->faulted && ++*heard == g->members.size()) {
              st.notify_ms.Add(second_of(g->fault_wall),
                               MillisBetween(g->fault_wall, Clock::now()));
              --st.live_groups;
              Grade(*g, out.counts, nullptr, nullptr);
              st.pending.erase(g.get());
              again();
            }
          });
          MarkFault(*g, true, std::vector<bool>(g->members.size(), true), c.env().Now(),
                    Clock::now());
          ++st.signalled;
          st.pending.emplace(g.get(), g);
          c.SignalGroupInContext(g->members[0], g->id);
        });
  };

  MessageCounts msg0;
  c.Run([&] {
    msg0 = MessageCounts::Of(c.env().metrics());
    for (int i = 0; i < kClients; ++i) {
      st.start();
    }
  });

  // The driving thread probes the loop while the clients run, and has the
  // loop thread itself time the speed gauge's slices between protocol work.
  SpeedGauge gauge(SpeedGauge::Kernel::kLoopback);
  std::vector<double> rtt_us;
  double bytes_per_group = 0;
  double timers_per_group = 0;
  bool sampled_state = false;
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(o.seconds));
  for (Clock::time_point next = start + kProbeEvery; next < start + window;
       next += kProbeEvery) {
    std::this_thread::sleep_until(next);
    const Clock::time_point t0 = Clock::now();
    tr.Time("runtime", "Run", loop_span, [&] { c.Run([] {}); });
    rtt_us.push_back(MillisBetween(t0, Clock::now()) * 1e3);
    c.Run([&] { gauge.Sample(second_of(Clock::now())); });
    if (!sampled_state && next >= start + window / 2) {
      // Group-state density at mid-run, over the groups alive right now.
      sampled_state = true;
      c.Run([&] {
        size_t bytes = 0;
        size_t timers = 0;
        for (size_t i = 0; i < c.size(); ++i) {
          bytes += c.node(i).fuse()->ApproxGroupBytes();
          timers += c.node(i).fuse()->CountArmedGroupTimers();
        }
        const double live = static_cast<double>(std::max<uint64_t>(st.live_groups, 1));
        bytes_per_group = static_cast<double>(bytes) / live;
        timers_per_group = static_cast<double>(timers) / live;
      });
    }
  }
  c.Run([&] { st.stopping = true; });
  const double loop_wall_s = SecondsSince(start);
  // Clients finish their current lifecycle. One whose upcalls never all
  // arrive stays stuck; the oracle grades its group as missed.
  c.Await([&] { return st.active == 0; }, tm.detect_bound);
  tr.Time("runtime", "AdvanceFor", loop_span, [&] { c.AdvanceFor(tm.post_settle); });
  tr.End(loop_span);

  MessageCounts msg1;
  uint64_t created = 0;
  uint64_t signalled = 0;
  WindowedSamples create_ms;
  WindowedSamples notify_ms;
  c.Run([&] {
    for (const auto& [key, g] : st.pending) {
      Grade(*g, out.counts, nullptr, nullptr);  // some member never heard it
    }
    st.pending.clear();
    msg1 = MessageCounts::Of(c.env().metrics());
    out.counts.creates = st.creates;
    out.counts.creates_failed = st.creates_failed;
    out.counts.create_no_verdict = st.late_verdicts;
    created = st.creates_ok;
    signalled = st.signalled;
    create_ms = st.create_ms;
    notify_ms = st.notify_ms;
    st.start = nullptr;
  });
  cluster.reset();

  // Wall figures at the reference machine speed (SpeedGauge): the loop is
  // CPU-bound, so its latencies and rate track the machine's speed. Each
  // second's latencies are scaled by that second's slices.
  const double slow = gauge.Slowdown();
  r.Set("notify_p50_ms", notify_ms.Percentile(50, gauge), "ms");
  r.Set("notify_p99_ms", notify_ms.Percentile(99, gauge), "ms");
  r.Set("create_p50_ms", create_ms.Percentile(50, gauge), "ms");
  r.Set("create_p99_ms", create_ms.Percentile(99, gauge), "ms");
  r.Set("notify_wall_s", notify_ms.Percentile(50, gauge) / 1e3, "s");
  const double raw_creates_per_s = static_cast<double>(created) / loop_wall_s;
  r.Set("creates_per_s", raw_creates_per_s * slow, "1/s");
  r.Set("load.machine_slowdown", slow, "ratio");
  r.Set("runtime.run_rtt_us", Median(rtt_us), "us");
  out.counts.Publish(r);

  r.Set("fuse.bytes_per_group", bytes_per_group, "B");
  r.Set("fuse.armed_timers_per_group", timers_per_group, "count");
  r.Set("fuse.create_msgs_per_group", Per(msg1.create - msg0.create, static_cast<double>(created)),
        "count");
  r.Set("fuse.notify_msgs_per_group",
        Per(msg1.notify - msg0.notify, static_cast<double>(signalled)), "count");
  r.Set("overlay.ping_msgs_per_node_s",
        Per(msg1.pings - msg0.pings, static_cast<double>(shape.nodes) * loop_wall_s), "1/s");
  r.Set("overlay.ping_bytes_per_msg",
        Per(msg1.ping_bytes - msg0.ping_bytes, static_cast<double>(msg1.pings - msg0.pings)), "B");
  r.Set("transport.syscalls_per_msg",
        Per(msg1.syscalls - msg0.syscalls, static_cast<double>(msg1.total - msg0.total)), "count");

  const std::string no_crash = "no crash in this workload";
  r.Unavailable("runtime.crash_call_ms", "ms", no_crash);
  r.Unavailable("runtime.restart_s", "s", no_crash);
  r.Unavailable("fuse.repair_msgs_per_crash", "count", no_crash);
  const std::string service = "GroupService is not driven on wall-clock backends (defect a)";
  r.Unavailable("service.create_wall_s", "s", service);
  r.Unavailable("service.bytes_per_group", "B", service);
  const std::string tcp = "TCP fabric: no datagrams, acks or retransmits";
  r.Unavailable("transport.records_per_datagram", "count", tcp);
  r.Unavailable("transport.retransmit_ratio", "share", tcp);
  r.Unavailable("transport.acks_deduped", "count", tcp);
  const std::string no_sim = "no simulator: LiveRuntime does not use EventQueue";
  r.Unavailable("sim.events_per_wall_s", "1/s", no_sim);
  r.Unavailable("sim.events_per_sim_s", "1/s", no_sim);
  r.Unavailable("sim.pending_timers", "count", no_sim);
  r.Unavailable("sim.crash_events", "count", no_sim);
  std::printf("signal: %llu lifecycles by %d clients in %.1f s, %llu signals\n",
              static_cast<unsigned long long>(out.counts.creates), kClients, loop_wall_s,
              static_cast<unsigned long long>(signalled));
  std::printf("signal raw wall figures (slowdown %.3f): create p50 %.3f ms p99 %.3f ms, notify "
              "p50 %.3f ms p99 %.3f ms, creates_per_s %.1f\n",
              slow, create_ms.Percentile(50), create_ms.Percentile(99), notify_ms.Percentile(50),
              notify_ms.Percentile(99), raw_creates_per_s);
  return out;
}

}  // namespace notifybench
