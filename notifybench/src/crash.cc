// crash: a closed loop of machine crashes on real worker processes over UDP.
// Each cycle creates a batch of groups through a bounded in-flight window,
// watches every member, settles, SIGKILLs one worker (one machine), waits for
// every expected upcall plus a post window, and restarts the machine. The
// victim rotates each cycle. This is the paper's crash-notification path
// (section 7.4, Fig. 9) on real processes: overlay ping timeouts, FUSE
// hard/soft propagation, repair of the groups the crash missed, and the
// datagram transport.
//
// Creates and watches go through ClusterHarness::CreateGroupInContext and
// WatchGroupMemberInContext inside Run, not through GroupService, whose
// in-flight count is updated from two threads on the wall-clock backends
// (NOTES.md, defect a).
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "runtime/scenario.h"
#include "workloads.h"

namespace notifybench {

namespace {

using Counters = std::map<std::string, uint64_t>;

// Creates admitted to the cluster at once.
constexpr int kCreateWindow = 32;
// Empty Run round trips sampled per cycle.
constexpr int kRttSamples = 16;

// Loop-thread state of one create phase.
struct CreatePhase {
  int inflight = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  std::vector<double> latency_ms;
};

// Sums, over the workers alive at both snapshots (skipping `skip`), the
// per-worker counter growth between them.
void AddDeltas(const std::vector<Counters>& before, const std::vector<Counters>& after, int skip,
               Counters& sum) {
  for (size_t w = 0; w < before.size() && w < after.size(); ++w) {
    if (static_cast<int>(w) == skip || before[w].empty() || after[w].empty()) {
      continue;
    }
    for (const auto& [name, value] : after[w]) {
      const auto it = before[w].find(name);
      if (it != before[w].end() && value >= it->second) {
        sum[name] += value - it->second;
      }
    }
  }
}

uint64_t CounterOf(const Counters& c, fuse::Counter which) {
  const auto it = c.find(fuse::CounterName(which));
  return it == c.end() ? 0 : it->second;
}

void MarkUnobservable(Report& r) {
  const std::string workers =
      "node state lives in worker processes, which ship back transport counters only";
  const std::string service = "GroupService is not driven on wall-clock backends (defect a)";
  r.Unavailable("service.create_wall_s", "s", service);
  r.Unavailable("service.bytes_per_group", "B", service);
  r.Unavailable("fuse.bytes_per_group", "B", workers);
  r.Unavailable("fuse.armed_timers_per_group", "count", workers);
  r.Unavailable("fuse.create_msgs_per_group", "count", workers);
  r.Unavailable("fuse.notify_msgs_per_group", "count", workers);
  r.Unavailable("fuse.repair_msgs_per_crash", "count", workers);
  r.Unavailable("overlay.ping_msgs_per_node_s", "1/s", workers);
  r.Unavailable("overlay.ping_bytes_per_msg", "B", workers);
  const std::string no_sim = "no simulator: LiveRuntime does not use EventQueue";
  r.Unavailable("sim.events_per_wall_s", "1/s", no_sim);
  r.Unavailable("sim.events_per_sim_s", "1/s", no_sim);
  r.Unavailable("sim.pending_timers", "count", no_sim);
  r.Unavailable("sim.crash_events", "count", no_sim);
  r.Unavailable("load.machine_slowdown", "ratio",
                "timer-bound workload: wall figures are reported as measured");
}

}  // namespace

RunOutput RunCrash(const RunOptions& o) {
  RunOutput out;
  Report& r = out.report;
  Tracer& tr = *o.tracer;
  const CrashShape shape = CrashShapeFor(o.scale);
  const fuse::ScenarioTiming tm = fuse::ScenarioTiming::Live();

  auto cluster = BuildCluster([&] { return MakeCrashCluster(o.scale); }, tr, r);

  fuse::Rng rng(o.seed * 0x9e3779b97f4a7c15ULL + 0x5eed);
  const fuse::Placement& placement = cluster->placement();
  std::vector<std::shared_ptr<Group>> open;  // watched, not yet graded
  WindowedSamples notify_ms;  // by cycle
  WindowedSamples create_ms;  // by cycle
  std::vector<double> cycle_last_s;
  std::vector<double> crash_call_ms;
  std::vector<double> restart_s;
  std::vector<double> rtt_us;
  double create_wall_s = 0;
  uint64_t created = 0;
  double settle_clock_s = 0;
  double settle_wall_s = 0;
  Counters transport;

  const Clock::time_point run_start = Clock::now();
  for (int cycle = 0; cycle == 0 || SecondsSince(run_start) < o.seconds; ++cycle) {
    const int victim = static_cast<int>((o.seed + static_cast<uint64_t>(cycle)) %
                                        static_cast<uint64_t>(placement.NumMachines()));
    const uint32_t cycle_span = tr.Begin("bench", "cycle");
    std::vector<Counters> snap_start;
    if (tr.enabled()) {
      tr.Time("runtime", "TransportCounters", cycle_span,
              [&] { snap_start = cluster->TransportCountersByMachine(); });
    }

    // 1. Create the batch through a bounded in-flight window.
    auto phase = std::make_shared<CreatePhase>();
    std::vector<std::shared_ptr<Group>> batch;
    for (int gi = 0; gi < shape.groups_per_cycle; ++gi) {
      auto g = std::make_shared<Group>();
      g->members = rng.SampleIndices(static_cast<size_t>(shape.nodes),
                                     static_cast<size_t>(shape.group_size));
      batch.push_back(std::move(g));
    }
    const Clock::time_point create_start = Clock::now();
    size_t next = 0;
    const auto send_create = [&](const std::shared_ptr<Group>& g) {
      const uint32_t span = tr.Begin("fuse", "create", cycle_span);
      const Clock::time_point sent = Clock::now();
      ++phase->inflight;
      fuse::ProcessCluster* c = cluster.get();
      c->CreateGroupInContext(
          g->members[0], c->RefsOf(g->members),
          [c, &tr, &open, phase, g, span, sent, cycle_span](const fuse::Status& s,
                                                              fuse::FuseId id) {
            tr.End(span);
            --phase->inflight;
            phase->latency_ms.push_back(MillisBetween(sent, Clock::now()));
            if (!s.ok()) {
              ++phase->failed;
              return;
            }
            ++phase->ok;
            g->id = id;
            WatchAll(*c, g, tr, cycle_span);
            open.push_back(g);
          });
    };
    bool verdicts = true;
    while (verdicts && next < batch.size()) {
      tr.Time("runtime", "Run", cycle_span, [&] {
        cluster->Run([&] {
          while (phase->inflight < kCreateWindow && next < batch.size()) {
            send_create(batch[next++]);
          }
        });
      });
      verdicts = cluster->Await([&] { return phase->inflight <= kCreateWindow / 2; },
                                tm.create_bound);
    }
    // Whatever is still in flight now missed its bound: create_no_verdict.
    if (verdicts) {
      cluster->Await([&] { return phase->inflight == 0; }, tm.create_bound);
    }
    create_wall_s += SecondsSince(create_start);
    cluster->Run([&] {
      out.counts.creates += next;
      out.counts.creates_failed += phase->failed;
      out.counts.create_no_verdict += static_cast<uint64_t>(phase->inflight);
      created += phase->ok;
      for (const double ms : phase->latency_ms) {
        create_ms.Add(static_cast<size_t>(cycle), ms);
      }
    });

    // 2. Settle with every group idle.
    const fuse::TimePoint settle_clock = cluster->env().Now();
    const Clock::time_point settle_wall = Clock::now();
    tr.Time("runtime", "AdvanceFor", cycle_span, [&] { cluster->AdvanceFor(tm.settle); });
    settle_clock_s += (cluster->env().Now() - settle_clock).ToSecondsF();
    settle_wall_s += SecondsSince(settle_wall);
    for (int i = 0; i < kRttSamples; ++i) {
      const Clock::time_point t0 = Clock::now();
      tr.Time("runtime", "Run", cycle_span, [&] { cluster->Run([] {}); });
      rtt_us.push_back(MillisBetween(t0, Clock::now()) * 1e3);
    }
    std::vector<Counters> snap_crash;
    if (tr.enabled()) {
      tr.Time("runtime", "TransportCounters", cycle_span,
              [&] { snap_crash = cluster->TransportCountersByMachine(); });
      AddDeltas(snap_start, snap_crash, -1, transport);
    }

    // 3. Kill the machine: one SIGKILL.
    const fuse::TimePoint fault_clock = cluster->env().Now();
    const Clock::time_point fault_wall = Clock::now();
    tr.Time("runtime", "CrashMachine", cycle_span, [&] { cluster->CrashMachine(victim); });
    crash_call_ms.push_back(MillisBetween(fault_wall, Clock::now()));
    cluster->Run([&] {
      for (const auto& g : open) {
        std::vector<bool> live(g->members.size());
        for (size_t k = 0; k < live.size(); ++k) {
          live[k] = placement.MachineOf(g->members[k]) != victim;
        }
        const bool touched = std::find(live.begin(), live.end(), false) != live.end();
        MarkFault(*g, touched, live, fault_clock, fault_wall);
      }
    });

    // 4. Wait for every expected upcall, then watch the post window for late
    // or duplicate ones.
    const bool all_arrived = cluster->Await(
        [&] {
          for (const auto& g : open) {
            for (size_t k = 0; g->touched && k < g->members.size(); ++k) {
              if (g->expected[k] && g->fires[k] == 0) {
                return false;
              }
            }
          }
          return true;
        },
        tm.detect_bound);
    (void)all_arrived;  // a missing upcall is graded below as missed_notify
    tr.Time("runtime", "AdvanceFor", cycle_span, [&] { cluster->AdvanceFor(tm.post_settle); });
    cluster->Run([&] {
      double last_ms = 0;
      std::vector<double> cycle_ms;
      std::vector<std::shared_ptr<Group>> still_open;
      for (const auto& g : open) {
        const bool fired =
            std::any_of(g->fires.begin(), g->fires.end(), [](int f) { return f > 0; });
        if (g->touched || fired) {
          last_ms = std::max(last_ms, Grade(*g, out.counts, nullptr, &cycle_ms));
        } else {
          still_open.push_back(g);  // silent and untouched: carried to the next crash
        }
      }
      open = std::move(still_open);
      cycle_last_s.push_back(last_ms / 1e3);
      for (const double ms : cycle_ms) {
        notify_ms.Add(static_cast<size_t>(cycle), ms);
      }
    });
    if (tr.enabled()) {
      std::vector<Counters> snap_end;
      tr.Time("runtime", "TransportCounters", cycle_span,
              [&] { snap_end = cluster->TransportCountersByMachine(); });
      AddDeltas(snap_crash, snap_end, victim, transport);
    }

    // 5. Bring the machine back: a fresh worker process, nodes rejoin.
    const Clock::time_point restart_start = Clock::now();
    tr.Time("runtime", "RestartMachine", cycle_span, [&] { cluster->RestartMachine(victim); });
    restart_s.push_back(SecondsSince(restart_start));
    tr.End(cycle_span);
  }
  // Groups no crash touched must have stayed silent to the end.
  cluster->Run([&] {
    for (const auto& g : open) {
      Grade(*g, out.counts, nullptr, nullptr);
    }
    open.clear();
  });
  cluster.reset();

  r.Set("notify_p50_ms", notify_ms.Percentile(50), "ms");
  r.Set("notify_p99_ms", notify_ms.Percentile(99), "ms");
  r.Set("create_p50_ms", create_ms.Percentile(50), "ms");
  r.Set("create_p99_ms", create_ms.Percentile(99), "ms");
  r.Set("notify_wall_s", Median(cycle_last_s), "s");
  r.Set("creates_per_s", create_wall_s > 0 ? static_cast<double>(created) / create_wall_s : 0,
        "1/s");
  r.Set("steady_speed", settle_wall_s > 0 ? settle_clock_s / settle_wall_s : 0, "s/s");
  r.Set("runtime.run_rtt_us", Median(rtt_us), "us");
  r.Set("runtime.crash_call_ms", Median(crash_call_ms), "ms");
  r.Set("runtime.restart_s", Median(restart_s), "s");
  out.counts.Publish(r);

  const uint64_t records = CounterOf(transport, fuse::Counter::kTransportRecordsSent);
  const uint64_t datagrams = CounterOf(transport, fuse::Counter::kTransportDatagramsSent);
  const uint64_t syscalls = CounterOf(transport, fuse::Counter::kTransportSendSyscalls) +
                            CounterOf(transport, fuse::Counter::kTransportRecvSyscalls);
  r.Set("transport.syscalls_per_msg", Per(syscalls, records), "count");
  r.Set("transport.records_per_datagram", Per(records, datagrams), "count");
  r.Set("transport.retransmit_ratio",
        Per(CounterOf(transport, fuse::Counter::kRetransmitsTotal), records), "share");
  r.Set("transport.acks_deduped",
        static_cast<double>(CounterOf(transport, fuse::Counter::kAcksDedupedTotal)), "count");
  MarkUnobservable(r);
  std::printf("crash: %zu cycles, %zu expected upcalls timed, %llu creates\n",
              cycle_last_s.size(), notify_ms.size(),
              static_cast<unsigned long long>(out.counts.creates));
  return out;
}

}  // namespace notifybench
