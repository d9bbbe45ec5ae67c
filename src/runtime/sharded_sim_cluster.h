// ShardedSimCluster: the ClusterHarness over the sharded parallel simulator
// (sim/sharded_sim.h + transport/sharded_fabric.h). Same scenario/bench/fuzz
// surface as SimCluster; the backend partitions hosts across shards and runs
// them on a worker pool in conservative lockstep epochs. Selected through
// MakeSimCluster() by setting ClusterConfig::num_shards > 0.
#ifndef FUSE_RUNTIME_SHARDED_SIM_CLUSTER_H_
#define FUSE_RUNTIME_SHARDED_SIM_CLUSTER_H_

#include <memory>

#include "net/network.h"
#include "runtime/cluster.h"
#include "runtime/sim_cluster.h"
#include "sim/sharded_sim.h"
#include "transport/sharded_fabric.h"

namespace fuse {

class ShardedDeployment;

class ShardedSimCluster : public ClusterHarness {
 public:
  explicit ShardedSimCluster(ClusterConfig config);
  ~ShardedSimCluster() override;

  ShardedSim& sim();
  SimNetwork& net();
  ShardedFabric& fabric();
  const ClusterConfig& config() const;

 private:
  ShardedDeployment* sharded_deploy_;  // owned by the base class
};

// Backend dispatch on ClusterConfig::num_shards: 0 builds the classic
// single-threaded SimCluster (bit-for-bit the traces every golden was blessed
// against), >= 1 builds a ShardedSimCluster with that many shards run by
// ClusterConfig::threads threads (the control thread included). Note num_shards = 1 is the sharded engine
// with one shard — same epoch machinery, different (valid) trace than the
// classic backend.
std::unique_ptr<ClusterHarness> MakeSimCluster(ClusterConfig config);

}  // namespace fuse

#endif  // FUSE_RUNTIME_SHARDED_SIM_CLUSTER_H_
