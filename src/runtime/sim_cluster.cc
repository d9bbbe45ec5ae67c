#include "runtime/sim_cluster.h"

#include <type_traits>
#include <utility>

#include "common/logging.h"
#include "runtime/sharded_sim_cluster.h"
#include "sim/shard.h"

namespace fuse {

namespace {

// What differs between the two simulator engines at construction; everything
// else a simulated deployment does is the same on both.
Simulation MakeEngine(std::type_identity<Simulation>, const ClusterConfig& c) {
  return Simulation(c.seed);
}

ShardedSim MakeEngine(std::type_identity<ShardedSim>, const ClusterConfig& c) {
  FUSE_CHECK(c.num_shards >= 1) << "sharded backend needs num_shards >= 1";
  return ShardedSim(c.seed, static_cast<uint32_t>(c.num_shards), c.threads);
}

std::unique_ptr<SimFabric> MakeFabric(Simulation& sim, SimNetwork& net, const ClusterConfig& c) {
  return std::make_unique<SimFabric>(sim, net, c.cost, c.tcp);
}

std::unique_ptr<ShardedFabric> MakeFabric(ShardedSim& sim, SimNetwork& net,
                                          const ClusterConfig& c) {
  return std::make_unique<ShardedFabric>(sim, net, c.cost, c.tcp,
                                         static_cast<size_t>(c.num_nodes), c.hosts_per_machine);
}

HarnessConfig HarnessConfigFrom(const ClusterConfig& c) {
  HarnessConfig hc;
  hc.num_nodes = c.num_nodes;
  hc.overlay = c.overlay;
  hc.fuse = c.fuse;
  hc.join_batch = c.join_batch;
  // Blocked layout matching SimDeployment::CreateHost's router boundary
  // (`index % hosts_per_machine == 0` starts a new machine), so the harness's
  // machine map names exactly the co-location the topology models.
  hc.placement = Placement::Pack(c.num_nodes, c.hosts_per_machine < 1 ? 1 : c.hosts_per_machine);
  return hc;  // timing keeps the virtual-time defaults
}

}  // namespace

// Discrete-event backend on either engine: virtual time, direct protocol
// calls, fault rules applied to the SimNetwork the fabric consults on every
// attempt. Topology generation and host placement draw from the engine's
// (control) RNG in the same order on both engines; on the sharded one the
// partition only decides where a host's events run, never where it sits.
template <class Engine, class Fabric>
class SimDeployment : public Deployment {
 public:
  explicit SimDeployment(ClusterConfig config)
      : config_(std::move(config)), sim_(MakeEngine(std::type_identity<Engine>(), config_)) {
    Topology topo = Topology::Generate(config_.topology, sim_.rng());
    net_ = std::make_unique<SimNetwork>(std::move(topo));
    fabric_ = MakeFabric(sim_, *net_, config_);
    // Mirrors the harness's own adjustment, so config() reflects how nodes
    // are actually constructed.
    config_.overlay.start_maintenance_on_join = false;
  }

  Environment& env() override { return sim_; }

  Transport* CreateHost(size_t index) override {
    HostId h;
    if (config_.hosts_per_machine > 1) {
      // Co-locate groups of nodes on one router ("machine"), as on the
      // paper's 40-machine ModelNet cluster.
      if (index % static_cast<size_t>(config_.hosts_per_machine) == 0) {
        machine_ = net_->topology().RandomRouter(sim_.rng());
      }
      h = net_->AddHostAt(machine_);
    } else {
      h = net_->AddHost(sim_.rng());
    }
    return fabric_->TransportFor(h);
  }

  void CrashHost(HostId h) override { fabric_->CrashHost(h); }
  void RestartHost(HostId h) override { fabric_->RestartHost(h); }

  void ApplyFaults(const std::function<void(FaultInjector&)>& fn) override {
    fn(net_->faults());
  }

  void Run(const std::function<void()>& fn) override { fn(); }
  void AdvanceFor(Duration d) override { sim_.RunFor(d); }
  bool AwaitCondition(const std::function<bool()>& pred, Duration bound) override {
    return sim_.RunUntilCondition(pred, sim_.Now() + bound);
  }
  bool virtual_time() const override { return true; }

  // Harness upcalls issued from protocol code on a sharded engine run on
  // whichever shard owns the calling host; defer them to the control
  // thread's barrier replay. Calls in barrier/control context, and every call
  // on the classic engine, have no current shard and run inline.
  void Defer(std::function<void()> fn) override {
    if (Shard* s = Shard::Current()) {
      s->DeferUpcall(std::move(fn));
      return;
    }
    fn();
  }

  const ClusterConfig& config() const { return config_; }
  Engine& sim() { return sim_; }
  SimNetwork& net() { return *net_; }
  Fabric& fabric() { return *fabric_; }

 private:
  ClusterConfig config_;
  Engine sim_;
  std::unique_ptr<SimNetwork> net_;
  std::unique_ptr<Fabric> fabric_;
  RouterId machine_;
};

SimCluster::SimCluster(ClusterConfig config)
    : ClusterHarness(std::make_unique<SimDeployment<Simulation, SimFabric>>(config),
                     HarnessConfigFrom(config)),
      deploy_(static_cast<SimDeployment<Simulation, SimFabric>*>(&deployment())) {}

SimCluster::~SimCluster() = default;

Simulation& SimCluster::sim() { return deploy_->sim(); }
SimNetwork& SimCluster::net() { return deploy_->net(); }
SimFabric& SimCluster::fabric() { return deploy_->fabric(); }
const ClusterConfig& SimCluster::config() const { return deploy_->config(); }

ShardedSimCluster::ShardedSimCluster(ClusterConfig config)
    : ClusterHarness(std::make_unique<SimDeployment<ShardedSim, ShardedFabric>>(config),
                     HarnessConfigFrom(config)),
      deploy_(static_cast<SimDeployment<ShardedSim, ShardedFabric>*>(&deployment())) {}

ShardedSimCluster::~ShardedSimCluster() = default;

ShardedSim& ShardedSimCluster::sim() { return deploy_->sim(); }
SimNetwork& ShardedSimCluster::net() { return deploy_->net(); }
ShardedFabric& ShardedSimCluster::fabric() { return deploy_->fabric(); }
const ClusterConfig& ShardedSimCluster::config() const { return deploy_->config(); }

std::unique_ptr<ClusterHarness> MakeSimCluster(ClusterConfig config) {
  if (config.num_shards > 0) {
    return std::make_unique<ShardedSimCluster>(std::move(config));
  }
  return std::make_unique<SimCluster>(std::move(config));
}

}  // namespace fuse
