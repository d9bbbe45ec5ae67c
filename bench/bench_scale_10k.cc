// Scaling benchmark: pushes the simulator past the paper's 400 virtual nodes
// toward 10k+, exercising the timer-wheel event core under the full
// steady-state ping load (every node pings every distinct routing-table
// neighbor each period — paper section 7.4).
//
// For each scale it reports:
//   * Build() wall time (topology + joins + ring convergence),
//   * steady-state throughput: simulated events and messages executed per
//     wall second over 60 simulated seconds of pinging,
//   * timer pressure: pending/scheduled/cancelled event counts (the numbers
//     ping coalescing is measured against),
//   * crash-notification latency: one co-located "machine" (10 virtual
//     nodes) crashes and every surviving member of an affected FUSE group
//     must be notified (the Figure 9 experiment, at scale).
//
// Usage:
//   bench_scale_10k                      # full sweep: 1000 4000 10000
//   bench_scale_10k 1000 4000            # explicit scales
//   bench_scale_10k --smoke              # CI gate: 10k build + 60 s pings
//   bench_scale_10k --coalesce           # batch each node's pings
//   bench_scale_10k --json out.json ...  # also emit machine-readable results
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/scale_bench.h"

int main(int argc, char** argv) {
  using namespace fuse::bench;

  bool smoke = false;
  std::string json_path;
  std::vector<int> scales;
  ScaleOptions opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--coalesce") == 0) {
      opt.coalesce = true;
    } else {
      scales.push_back(std::atoi(argv[i]));
    }
  }
  if (scales.empty()) {
    scales = smoke ? std::vector<int>{10000} : std::vector<int>{1000, 4000, 10000};
  }
  opt.with_groups = !smoke;

  Header("Scale: timer-wheel event core at 1k-10k virtual nodes",
         "ROADMAP 'Scale the simulator' (beyond paper section 7.1's 400 nodes)");
  std::vector<ScaleResult> results;
  for (int n : scales) {
    results.push_back(RunScale(n, opt));
    PrintScaleResult(results.back(), opt.with_groups);
  }
  if (!json_path.empty()) {
    WriteScaleJson(json_path, results, opt.with_groups);
  }
  return 0;
}
