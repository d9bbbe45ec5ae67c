// SimNetwork: hosts attached to the router topology, plus the loss model and
// fault rules the transport consults. This is the ModelNet-emulator
// equivalent in our reproduction. Both simulator fabrics (tcp_model.h,
// sharded_fabric.h) take each transmission attempt's verdict from
// DrawAttempt, so the network model is defined here once.
#ifndef FUSE_NET_NETWORK_H_
#define FUSE_NET_NETWORK_H_

#include <cmath>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/time.h"
#include "net/fault_injector.h"
#include "net/topology.h"

namespace fuse {

class SimNetwork {
 public:
  explicit SimNetwork(Topology topology) : topology_(std::move(topology)) {}

  // Attaches a new host to a uniformly random router.
  HostId AddHost(Rng& rng);
  // Attaches a new host to a specific router (used to co-locate hosts, the
  // analogue of running several virtual nodes on one cluster machine).
  HostId AddHostAt(RouterId router);

  size_t NumHosts() const { return host_routers_.size(); }
  RouterId RouterOf(HostId h) const { return host_routers_[h.value]; }

  // One-way latency and physical hop count between two hosts. The first path
  // from a's AS computes that AS's route row (Topology::GetPath); safe to
  // call from the sharded simulator's workers.
  Topology::PathInfo GetPath(HostId a, HostId b) const {
    return topology_.GetPath(host_routers_[a.value], host_routers_[b.value]);
  }

  // Uniform per-link packet loss probability (Figure 11/12 experiments).
  void SetPerLinkLossRate(double p) { per_link_loss_ = p; }
  double per_link_loss_rate() const { return per_link_loss_; }

  // Probability that a single packet survives the a->b route.
  double RouteSuccessProbability(HostId a, HostId b) const {
    if (per_link_loss_ <= 0.0) {
      return 1.0;
    }
    return RouteSuccessProbabilityForHops(GetPath(a, b).hops);
  }

  // Same survival model for a pre-resolved hop count.
  double RouteSuccessProbabilityForHops(uint32_t hops) const {
    if (per_link_loss_ <= 0.0) {
      return 1.0;
    }
    return std::pow(1.0 - per_link_loss_, static_cast<double>(hops));
  }

  // The verdict on one transmission attempt of a from->to message whose ack
  // travels back to->from.
  struct Attempt {
    bool data_ok = false;  // the data survived the route
    bool ack_ok = false;   // ... and so did its ack
    Duration one_way;      // the data's delay, jitter included
    Duration rtt;          // data plus ack delay, without jitter
  };
  // `fwd` and `rev` are GetPath(from, to) and GetPath(to, from); callers may
  // cache them. Directional verdicts: under a one-way block the data can
  // arrive while every ack is lost. Draws from `rng` in a fixed order — data
  // survival (skipped under a block), ack survival (skipped when the data was
  // lost or the ack is blocked), then reorder jitter only while a reorder
  // rule applies — so a schedule without those rules draws nothing extra.
  Attempt DrawAttempt(HostId from, HostId to, const Topology::PathInfo& fwd,
                      const Topology::PathInfo& rev, TimePoint now, Rng& rng) const;

  FaultInjector& faults() { return faults_; }
  const FaultInjector& faults() const { return faults_; }
  const Topology& topology() const { return topology_; }

 private:
  Topology topology_;
  std::vector<RouterId> host_routers_;
  FaultInjector faults_;
  double per_link_loss_ = 0.0;
};

}  // namespace fuse

#endif  // FUSE_NET_NETWORK_H_
