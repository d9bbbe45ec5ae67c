#include "net/network.h"

namespace fuse {

HostId SimNetwork::AddHost(Rng& rng) { return AddHostAt(topology_.RandomRouter(rng)); }

HostId SimNetwork::AddHostAt(RouterId router) {
  const HostId id(host_routers_.size());
  host_routers_.push_back(router);
  return id;
}

SimNetwork::Attempt SimNetwork::DrawAttempt(HostId from, HostId to,
                                            const Topology::PathInfo& fwd,
                                            const Topology::PathInfo& rev, TimePoint now,
                                            Rng& rng) const {
  // Loss bursts multiply the per-attempt survival probability, so a rule set
  // without bursts draws the same Bernoulli sequence as one that never had
  // the rule.
  const double burst = faults_.HasLossBursts() ? faults_.BurstLossProbability(from, to, now) : 0.0;
  Attempt a;
  a.data_ok = !faults_.IsBlocked(from, to) &&
              rng.Bernoulli(RouteSuccessProbabilityForHops(fwd.hops) * (1.0 - burst));
  a.ack_ok = a.data_ok && !faults_.IsBlocked(to, from) &&
             rng.Bernoulli(RouteSuccessProbabilityForHops(rev.hops) * (1.0 - burst));
  const Duration fwd_extra = faults_.ExtraDelay(from, to);
  a.one_way = fwd.latency + fwd_extra;
  const Duration jitter_max = faults_.ReorderJitterFor(from, to);
  if (!jitter_max.IsZero()) {
    // Extra per-message delay scrambles arrival order across connections.
    a.one_way += Duration::Micros(rng.UniformInt(0, jitter_max.ToMicros()));
  }
  a.rtt = fwd.latency + rev.latency + fwd_extra + faults_.ExtraDelay(to, from);
  return a;
}

}  // namespace fuse
