// SimCluster: the simulated deployment — the ClusterHarness machinery
// (topology-wide build, crash/restart, churn, fault rules) over a discrete
// event simulation backend: Topology + SimNetwork + SimFabric driven by
// virtual time. This is the paper's discrete-event-simulator configuration
// (section 7); LiveCluster (live_cluster.h) is the wall-clock twin.
#ifndef FUSE_RUNTIME_SIM_CLUSTER_H_
#define FUSE_RUNTIME_SIM_CLUSTER_H_

#include <memory>

#include "net/network.h"
#include "runtime/cluster.h"
#include "sim/simulation.h"
#include "transport/tcp_model.h"

namespace fuse {

struct ClusterConfig {
  int num_nodes = 400;
  uint64_t seed = 1;
  TopologyConfig topology;
  // Cluster() reproduces the paper's ModelNet testbed (connection setup +
  // messaging overheads); Simulator() reproduces its discrete event
  // simulator. Both run on this same code base, as in the paper.
  CostModel cost = CostModel::Cluster();
  TcpParams tcp;
  SkipNetConfig overlay;
  FuseParams fuse;
  // >1 co-locates this many nodes per "machine" (router), as in the paper's
  // 400-virtual-nodes-on-40-machines setup.
  int hosts_per_machine = 1;
  // Nodes joined concurrently during Build (smaller = slower but gentler).
  int join_batch = 16;

  // Preset for large-scale runs (1k-10k+ virtual nodes, well past the
  // paper's 400): simulator cost model, the paper's 10-nodes-per-machine
  // co-location, and an aggressive join batch so Build() converges quickly.
  // The timer-wheel event core keeps the steady-state ping load (every node
  // pings every distinct neighbor each period) cheap at this scale.
  static ClusterConfig LargeScale(int num_nodes, uint64_t seed) {
    ClusterConfig cfg;
    cfg.num_nodes = num_nodes;
    cfg.seed = seed;
    cfg.cost = CostModel::Simulator();
    cfg.hosts_per_machine = 10;
    cfg.join_batch = 64;
    return cfg;
  }
};

// The simulated deployment (Simulation + SimFabric), defined in
// sim_cluster.cc.
class SimDeployment;

class SimCluster : public ClusterHarness {
 public:
  explicit SimCluster(ClusterConfig config);
  ~SimCluster() override;

  Simulation& sim();
  SimNetwork& net();
  SimFabric& fabric();
  const ClusterConfig& config() const;

 private:
  SimDeployment* deploy_;  // owned by the base class
};

// A SimCluster behind the backend-neutral harness interface.
std::unique_ptr<ClusterHarness> MakeSimCluster(ClusterConfig config);

}  // namespace fuse

#endif  // FUSE_RUNTIME_SIM_CLUSTER_H_
