#include "runtime/live_cluster.h"

#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "runtime/loop_deployment.h"
#include "runtime/placement.h"

#if defined(__linux__)
#include "transport/datagram_transport.h"
#include "transport/socket_transport.h"
#endif

namespace fuse {

namespace {

// The cluster-level seed is authoritative: it feeds the runtime's protocol
// rng (node ids, join bootstraps, churn intervals, protocol jitter) and,
// through a derived stream, the send path's loss/latency draws.
LiveRuntime::Config RuntimeConfigFrom(const LiveClusterConfig& c) {
  LiveRuntime::Config rc = c.runtime;
  rc.seed = c.seed;
  return rc;
}

}  // namespace

// Wall-clock in-process backend: one loop thread, marshalled protocol access,
// real sleeps (all from LoopDeployment). Fault rules live inside LiveRuntime,
// consulted by its Send path under the loop lock.
class LiveDeployment : public LoopDeployment {
 public:
  explicit LiveDeployment(const LiveClusterConfig& config)
      : LoopDeployment(RuntimeConfigFrom(config)),
        transport_(config.transport),
        seed_(config.seed),
        placement_(Placement::Pack(config.num_nodes,
                                   config.nodes_per_machine < 1 ? 1 : config.nodes_per_machine)) {
#if !defined(__linux__)
    FUSE_CHECK(transport_ == TransportKind::kInProcess)
        << "real transports need the Linux epoll loop";
#endif
  }

  Transport* CreateHost(size_t index) override {
    if (transport_ == TransportKind::kInProcess) {
      return runtime_->CreateHost();
    }
#if defined(__linux__)
    // Real-transport mode: every *machine* gets one fabric (socket set +
    // fault-rule replica) shared by its co-located hosts on the shared loop,
    // so inter-machine traffic crosses actual loopback sockets instead of the
    // in-memory queue — the single-process analogue of a multi-tenant worker
    // process. Hosts are created in index order, so a machine's fabric comes
    // up with its first host, and host ids are the indices.
    const HostId h(index);
    const size_t m = static_cast<size_t>(placement_.MachineOf(index));
    Transport* t = nullptr;
    runtime_->RunOnLoop([&] {
      if (m == fabrics_.size()) {
        std::unique_ptr<Fabric> fab;
        if (transport_ == TransportKind::kUdp) {
          DatagramFabric::Options o;
          o.seed = seed_ ^ (0x9e3779b97f4a7c15ULL * (fabrics_.size() + 1));
          fab = std::make_unique<DatagramFabric>(runtime_.get(), o);
        } else {
          fab = std::make_unique<SocketFabric>(runtime_.get());
        }
        const uint16_t port = fab->Listen();
        fab->ApplyAddressMap(addrs_);  // addresses of every earlier host
        fabrics_.push_back(Entry{std::move(fab), port});
      }
      FUSE_CHECK(m < fabrics_.size()) << "hosts created out of placement order";
      Entry& e = fabrics_[m];
      // Advertise the new host at its machine's port, to everyone (including
      // its own fabric: co-hosted traffic still resolves, then short-circuits
      // through the local dispatch table).
      addrs_.Set(h, PeerEndpoint::Loopback(e.port));
      for (auto& other : fabrics_) {
        other.fabric->SetPeerAddr(h, e.port);
      }
      host_machine_[h.value] = m;
      t = e.fabric->TransportFor(h);
    });
    return t;
#else
    return nullptr;  // unreachable: the constructor admits only kInProcess here
#endif
  }

  void CrashHost(HostId h) override {
    // Fail-stop: the fault rules drop the host's traffic both ways, and the
    // dispatch table empties like a process that vanished (a restarted node
    // re-registers, as in the paper's stable-storage-free recovery).
    runtime_->SetHostDown(h, true);
#if defined(__linux__)
    if (!fabrics_.empty()) {
      runtime_->RunOnLoop([&] {
        for (auto& e : fabrics_) {
          e.fabric->faults().SetHostDown(h, true);
        }
        FabricOf(h)->TransportFor(h)->UnregisterAllHandlers();
      });
      return;
    }
#endif
    runtime_->TransportFor(h)->UnregisterAllHandlers();
  }

  void RestartHost(HostId h) override {
    runtime_->SetHostDown(h, false);
#if defined(__linux__)
    if (!fabrics_.empty()) {
      runtime_->RunOnLoop([&] {
        for (auto& e : fabrics_) {
          e.fabric->faults().SetHostDown(h, false);
        }
      });
    }
#endif
  }

  void ApplyFaults(const std::function<void(FaultInjector&)>& fn) override {
    LoopDeployment::ApplyFaults(fn);
#if defined(__linux__)
    // Replicate into every fabric's rule mirror, the same way the process
    // deployment broadcasts rules into its workers.
    if (!fabrics_.empty()) {
      runtime_->RunOnLoop([&] {
        for (auto& e : fabrics_) {
          fn(e.fabric->faults());
        }
      });
    }
#endif
  }

 private:
  TransportKind transport_;
  uint64_t seed_;
  Placement placement_;
#if defined(__linux__)
  struct Entry {
    std::unique_ptr<Fabric> fabric;
    uint16_t port = 0;
  };
  Fabric* FabricOf(HostId h) {
    const auto it = host_machine_.find(h.value);
    FUSE_CHECK(it != host_machine_.end()) << "no fabric hosts " << h.value;
    return fabrics_[it->second].fabric.get();
  }
  std::vector<Entry> fabrics_;  // one per machine; loop-thread state
  std::unordered_map<uint64_t, size_t> host_machine_;
  PeerAddressMap addrs_;  // authoritative host -> endpoint map
#endif
};

LiveClusterConfig LiveClusterConfig::FastProtocol(int num_nodes, uint64_t seed) {
  LiveClusterConfig cfg;
  cfg.num_nodes = num_nodes;
  cfg.seed = seed;
  // Scaled-down protocol constants (the LiveRuntime test settings): full
  // failure-detection and repair cycles complete within a couple of seconds.
  cfg.overlay.ping_period = Duration::Millis(200);
  cfg.overlay.ping_timeout = Duration::Millis(100);
  cfg.overlay.join_timeout = Duration::Millis(500);
  cfg.overlay.query_timeout = Duration::Millis(200);
  cfg.overlay.repair_delay = Duration::Millis(50);
  cfg.overlay.leaf_exchange_period = Duration::Millis(500);
  cfg.fuse.create_timeout = Duration::Seconds(2);
  cfg.fuse.install_timeout = Duration::Seconds(1);
  cfg.fuse.member_repair_timeout = Duration::Millis(600);
  cfg.fuse.root_repair_timeout = Duration::Seconds(1);
  cfg.fuse.link_liveness_timeout = Duration::Millis(400);
  cfg.fuse.grace_period = Duration::Millis(100);
  cfg.fuse.repair_backoff_initial = Duration::Millis(100);
  cfg.fuse.repair_backoff_cap = Duration::Millis(400);
  // Wall-clock wait bounds matched to those constants.
  cfg.timing.join_wait = Duration::Seconds(20);
  cfg.timing.settle_round = Duration::Millis(400);
  cfg.timing.restart_wait = Duration::Seconds(20);
  return cfg;
}

namespace {

HarnessConfig HarnessConfigFrom(const LiveClusterConfig& c) {
  HarnessConfig hc;
  hc.num_nodes = c.num_nodes;
  hc.overlay = c.overlay;
  hc.fuse = c.fuse;
  hc.join_batch = c.join_batch;
  hc.timing = c.timing;
  hc.placement = Placement::Pack(c.num_nodes, c.nodes_per_machine < 1 ? 1 : c.nodes_per_machine);
  return hc;
}

}  // namespace

LiveCluster::LiveCluster(LiveClusterConfig config)
    : ClusterHarness(std::make_unique<LiveDeployment>(config), HarnessConfigFrom(config)),
      live_deploy_(static_cast<LiveDeployment*>(&deployment())) {}

LiveCluster::~LiveCluster() = default;

LiveRuntime& LiveCluster::runtime() { return live_deploy_->runtime(); }

}  // namespace fuse
