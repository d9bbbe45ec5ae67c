// Scaling benchmark: 100k virtual nodes on the simulator.
//
// A cluster an order of magnitude past bench_scale_10k, runnable because each
// node's periodic pings are coalesced behind one timer pair instead of two
// timers per neighbor (~240k armed timers instead of ~3M).
//
// Defaults: coalesced pings.
// The smoke mode used by the CI gate builds the full 100k overlay and runs
// the 60-sim-second steady-state ping window; the full mode additionally
// measures the Figure 9 crash-notification experiment at this scale.
//
// Usage:
//   bench_scale_100k                       # full run at 100000 nodes
//   bench_scale_100k --smoke               # CI gate: build + 60 sim-s pings
//   bench_scale_100k --nodes 50000         # other scales
//   bench_scale_100k --no-coalesce         # per-neighbor timers (slow!)
//   bench_scale_100k --json out.json
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/scale_bench.h"

int main(int argc, char** argv) {
  using namespace fuse::bench;

  bool smoke = false;
  std::string json_path;
  int nodes = 100000;
  ScaleOptions opt;
  opt.coalesce = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      nodes = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--no-coalesce") == 0) {
      opt.coalesce = false;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--nodes N] [--no-coalesce] [--json out.json]\n",
                   argv[0]);
      return 1;
    }
  }
  opt.with_groups = !smoke;

  Header("Scale: 100k virtual nodes on the simulator",
         "ROADMAP 'push toward 100k-1M nodes'");
  std::printf("config: %d nodes, coalesced pings %s\n", nodes, opt.coalesce ? "on" : "off");
  std::vector<ScaleResult> results;
  results.push_back(RunScale(nodes, opt));
  PrintScaleResult(results.back(), opt.with_groups);
  if (!json_path.empty()) {
    WriteScaleJson(json_path, results, opt.with_groups);
  }
  return 0;
}
