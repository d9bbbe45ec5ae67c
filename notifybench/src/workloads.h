// The three workloads. Each builds its cluster through clusters.h, drives it
// for about `seconds` of measurement, grades every create and watch with the
// oracle, and sets every metric main.cc lists: the end-to-end ones, and each
// per-layer one either measured or marked unavailable with the reason.
#ifndef NOTIFYBENCH_WORKLOADS_H_
#define NOTIFYBENCH_WORKLOADS_H_

#include <cstdint>
#include <cstdio>
#include <vector>

#include "clusters.h"
#include "common/metrics.h"
#include "oracle.h"
#include "report.h"

namespace notifybench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  Scale scale;
  Tracer* tracer = nullptr;  // never null; disabled in the untraced run
};

struct RunOutput {
  Report report;
  OracleCounts counts;
};

// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 3;

// Builds a cluster kSetupRepeats times, one at a time, keeps the last, and
// reports the median wall time of construction plus Build() (worker forks
// included) as setup_s. One at a time matters on the process backend: a
// deployment forks its spawner only while the process is single-threaded,
// i.e. after the previous one's loop thread was joined. With a gauge, a few
// of its slices run before each build and setup_s is reported at the
// reference speed, like the workload's other wall figures.
template <typename MakeFn>
auto BuildCluster(MakeFn make, Tracer& tr, Report& r, SpeedGauge* gauge = nullptr) {
  constexpr int kSlicesPerBuild = 4;
  decltype(make()) cluster;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    cluster.reset();
    for (int k = 0; gauge != nullptr && k < kSlicesPerBuild; ++k) {
      gauge->Sample();
    }
    const Clock::time_point t0 = Clock::now();
    const uint32_t span = tr.Begin("runtime", "Build");
    cluster = make();
    cluster->Build();
    tr.End(span);
    setups.push_back(SecondsSince(t0));
  }
  const double setup_s = Median(setups);
  if (gauge != nullptr) {
    std::printf("setup raw median %.4f s (slowdown %.3f)\n", setup_s, gauge->Slowdown());
  }
  r.Set("setup_s", gauge != nullptr ? setup_s / gauge->Slowdown() : setup_s, "s");
  return cluster;
}

// Message counts by category, from a Metrics the caller may read.
struct MessageCounts {
  uint64_t create = 0;  // kFuseCreate + kFuseInstallChecking
  uint64_t notify = 0;  // Hard + Soft notifications
  uint64_t repair = 0;  // NeedRepair + Repair + Reconcile
  uint64_t pings = 0;   // overlay pings and replies
  uint64_t ping_bytes = 0;
  uint64_t total = 0;
  uint64_t syscalls = 0;  // transport send + recv syscalls

  static MessageCounts Of(const fuse::Metrics& m) {
    using fuse::MsgCategory;
    MessageCounts s;
    s.create = m.MessageCount(MsgCategory::kFuseCreate) +
               m.MessageCount(MsgCategory::kFuseInstallChecking);
    s.notify = m.MessageCount(MsgCategory::kFuseHardNotification) +
               m.MessageCount(MsgCategory::kFuseSoftNotification);
    s.repair = m.MessageCount(MsgCategory::kFuseNeedRepair) +
               m.MessageCount(MsgCategory::kFuseRepair) +
               m.MessageCount(MsgCategory::kFuseReconcile);
    s.pings = m.MessageCount(MsgCategory::kOverlayPing) +
              m.MessageCount(MsgCategory::kOverlayPingReply);
    s.ping_bytes =
        m.ByteCount(MsgCategory::kOverlayPing) + m.ByteCount(MsgCategory::kOverlayPingReply);
    s.total = m.TotalMessages();
    s.syscalls = m.GetCounter(fuse::Counter::kTransportSendSyscalls) +
                 m.GetCounter(fuse::Counter::kTransportRecvSyscalls);
    return s;
  }
};

RunOutput RunCrash(const RunOptions& options);
RunOutput RunSignal(const RunOptions& options);
RunOutput RunSimGroups(const RunOptions& options);

}  // namespace notifybench

#endif  // NOTIFYBENCH_WORKLOADS_H_
