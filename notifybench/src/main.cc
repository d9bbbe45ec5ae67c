// notifybench: one workload per invocation.
//
//   notifybench --workload crash|signal|sim_groups --seed N --seconds S
//               --trace 0|1 [--tiny] [--spans FILE]
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs the workload
// twice, untraced then traced, and prints the per-layer metrics of the traced
// run, each layer's self time, and the tracing overhead on every end-to-end
// metric; --spans writes the traced run's spans. The last line of standard
// output is the result JSON. --tiny is the self-test size.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "workloads.h"

namespace {

using namespace notifybench;

// Printed by every workload; see NOTES.md for what each means per workload.
const std::vector<std::string> kEndToEnd = {
    "notify_p50_ms", "notify_p99_ms", "create_p50_ms", "create_p99_ms", "notify_wall_s",
    "creates_per_s", "steady_speed",  "setup_s",       "peak_rss_mb",
};

// Measured per layer in the traced run (or marked unavailable with a reason).
const std::vector<std::string> kPerLayer = {
    "runtime.run_rtt_us",
    "runtime.crash_call_ms",
    "runtime.restart_s",
    "runtime.create_no_verdict",
    "service.create_wall_s",
    "service.bytes_per_group",
    "fuse.bytes_per_group",
    "fuse.armed_timers_per_group",
    "fuse.create_msgs_per_group",
    "fuse.notify_msgs_per_group",
    "fuse.repair_msgs_per_crash",
    "fuse.false_notify_disjoint",
    "fuse.false_notify_prefault",
    "fuse.missed_notify",
    "fuse.dup_notify",
    "overlay.ping_msgs_per_node_s",
    "overlay.ping_bytes_per_msg",
    "transport.syscalls_per_msg",
    "transport.records_per_datagram",
    "transport.retransmit_ratio",
    "transport.acks_deduped",
    "sim.events_per_wall_s",
    "sim.events_per_sim_s",
    "sim.pending_timers",
    "sim.crash_events",
    "load.machine_slowdown",
};

// Layers the benchmark's spans are attributed to ("bench" is its own phases).
const std::vector<std::string> kSpanLayers = {"bench", "runtime", "service", "fuse", "sim"};
// Layers no public call from the benchmark reaches directly.
const std::vector<std::string> kUnspannedLayers = {"overlay", "transport"};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool tiny = false;
  std::string spans;
};

bool Parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v);
    } else if (flag == "--trace") {
      a.trace = std::atoi(v);
    } else if (flag == "--spans") {
      a.spans = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0 && (a.trace == 0 || a.trace == 1);
}

RunOutput RunOnce(const Args& a, Tracer& tracer) {
  RunOptions o;
  o.seed = a.seed;
  o.seconds = a.seconds;
  o.scale.tiny = a.tiny;
  o.tracer = &tracer;
  RunOutput out = a.workload == "crash"    ? RunCrash(o)
                  : a.workload == "signal" ? RunSignal(o)
                                           : RunSimGroups(o);
  // Reaped worker processes count: on crash the largest worker may top the
  // controller.
  out.report.Set("peak_rss_mb", std::max(PeakRssSelfMb(), PeakRssChildrenMb()), "MB");
  return out;
}

bool GuaranteeHeld(const OracleCounts& c) {
  return c.missed_notify == 0 && c.dup_notify == 0 && c.create_no_verdict == 0;
}

bool CheckNames(const Report& r, const std::vector<std::string>& names) {
  bool ok = true;
  for (const std::string& n : names) {
    if (!r.Has(n)) {
      std::fprintf(stderr, "notifybench: workload did not set metric %s\n", n.c_str());
      ok = false;
    }
  }
  return ok;
}

void PrintCounts(const char* label, const OracleCounts& c) {
  std::printf("%s: attempted %llu (creates %llu, watches %llu), failed %llu: create failed %llu, "
              "create no verdict %llu, false disjoint %llu, false prefault %llu, missed %llu, "
              "dup %llu; expected upcalls %llu\n",
              label, static_cast<unsigned long long>(c.attempted()),
              static_cast<unsigned long long>(c.creates),
              static_cast<unsigned long long>(c.watches),
              static_cast<unsigned long long>(c.failed()),
              static_cast<unsigned long long>(c.creates_failed),
              static_cast<unsigned long long>(c.create_no_verdict),
              static_cast<unsigned long long>(c.false_notify_disjoint),
              static_cast<unsigned long long>(c.false_notify_prefault),
              static_cast<unsigned long long>(c.missed_notify),
              static_cast<unsigned long long>(c.dup_notify),
              static_cast<unsigned long long>(c.expected_upcalls));
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!Parse(argc, argv, a) ||
      (a.workload != "crash" && a.workload != "signal" && a.workload != "sim_groups")) {
    std::fprintf(stderr,
                 "usage: notifybench --workload crash|signal|sim_groups --seed N --seconds S "
                 "--trace 0|1 [--tiny] [--spans FILE]\n");
    return 2;
  }

  Tracer off(false);
  const RunOutput base = RunOnce(a, off);
  PrintCounts(a.trace == 1 ? "untraced" : a.workload.c_str(), base.counts);
  if (!CheckNames(base.report, kEndToEnd) || !CheckNames(base.report, kPerLayer)) {
    return 3;
  }
  Report result;
  uint64_t attempted = base.counts.attempted();
  uint64_t failed = base.counts.failed();
  bool correct = GuaranteeHeld(base.counts);
  if (a.trace == 0) {
    result = base.report.Subset(kEndToEnd);
  } else {
    Tracer tracer(true);
    const RunOutput traced = RunOnce(a, tracer);
    PrintCounts("traced", traced.counts);
    if (!CheckNames(traced.report, kEndToEnd) || !CheckNames(traced.report, kPerLayer)) {
      return 3;
    }
    attempted += traced.counts.attempted();
    failed += traced.counts.failed();
    correct = correct && GuaranteeHeld(traced.counts);
    result = traced.report.Subset(kPerLayer);
    const auto self = tracer.SelfSeconds();
    for (const std::string& layer : kSpanLayers) {
      const auto it = self.find(layer);
      result.Set("self_s." + layer, it == self.end() ? 0.0 : it->second, "s");
    }
    for (const std::string& layer : kUnspannedLayers) {
      result.Unavailable("self_s." + layer, "s",
                         "reached only through other layers; in-program spans are a later change");
    }
    for (const std::string& n : kEndToEnd) {
      const double u = base.report.Get(n);
      result.Set("trace_overhead." + n, u != 0 ? (traced.report.Get(n) - u) / u : 0.0, "share");
    }
    if (!a.spans.empty()) {
      if (!tracer.Write(a.spans)) {
        std::fprintf(stderr, "notifybench: cannot write spans to %s\n", a.spans.c_str());
        return 4;
      }
      std::printf("wrote %zu spans to %s\n", tracer.NumSpans(), a.spans.c_str());
    }
  }
  result.Print(correct, attempted, failed);
  return 0;
}
