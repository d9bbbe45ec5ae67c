// The one place the benchmark turns a workload into a cluster. Every
// config keeps its own defaults for incremental_link_digest,
// coalesce_group_timers and coalesce_pings, and the simulator goes through
// MakeSimCluster, so a change of those defaults or of the config structs
// touches this file only and shows up as a measured change, not a silent one.
#ifndef NOTIFYBENCH_CLUSTERS_H_
#define NOTIFYBENCH_CLUSTERS_H_

#include <cstdint>
#include <memory>

#include "runtime/cluster.h"
#include "runtime/live_cluster.h"
#include "runtime/process_cluster.h"
#include "sim/simulation.h"

namespace notifybench {

// Sizes of one workload. Full is the benchmark; tiny is the self-test.
struct Scale {
  bool tiny = false;
};

struct CrashShape {
  int nodes;
  int workers;  // one worker process is one machine
  int groups_per_cycle;
  int group_size;
};
CrashShape CrashShapeFor(Scale s);
// ProcessCluster over UDP, FastProtocol constants, default FuseParams flags.
std::unique_ptr<fuse::ProcessCluster> MakeCrashCluster(Scale s);

struct SignalShape {
  int nodes;
  int nodes_per_machine;
  int group_size;
};
SignalShape SignalShapeFor(Scale s);
// LiveCluster over TCP in one process, FastProtocol constants.
std::unique_ptr<fuse::LiveCluster> MakeSignalCluster(Scale s);

struct SimGroupsShape {
  int nodes;  // ClusterConfig::LargeScale puts 10 nodes on a machine
  int group_size;
};
SimGroupsShape SimGroupsShapeFor(Scale s);
// The classic simulator: MakeSimCluster(ClusterConfig::LargeScale(...)).
std::unique_ptr<fuse::ClusterHarness> MakeSimGroupsCluster(Scale s);
// The simulation behind a cluster MakeSimGroupsCluster built.
fuse::Simulation& SimOf(fuse::ClusterHarness& cluster);

}  // namespace notifybench

#endif  // NOTIFYBENCH_CLUSTERS_H_
