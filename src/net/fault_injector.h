// Host-level fault injection.
//
// The paper's failure model (section 3.5) is fail-stop nodes plus arbitrary
// network failures: "any pattern of packet loss, duplication or re-ordering",
// including partitions and intransitive connectivity (A reaches B, B reaches
// C, A cannot reach C). This module expresses those as queryable rules that
// the transport consults on every delivery attempt.
//
// Rule vocabulary (all independently layered; a message a->b is affected by
// every applicable rule):
//   * down hosts — fail-stop crash (blocks both directions);
//   * blocked pairs — symmetric link failures (intransitive connectivity);
//   * one-way blocks — asymmetric link failures (a reaches b, b cannot
//     reach a);
//   * partitions — group boundaries nothing crosses;
//   * link/host delays — slow-but-alive: extra one-way latency per ordered
//     pair and per host (gray failures that inflate RTTs without killing
//     liveness outright);
//   * clock rates — per-host timer skew (rate 2.0 = the host's timers run
//     twice as fast, so it pings and times out early);
//   * loss bursts — timed rules: extra drop probability for traffic touching
//     a host (or everyone) during [from, until);
//   * reorder jitter — uniform extra per-message delay, which reorders
//     traffic across connections.
#ifndef FUSE_NET_FAULT_INJECTOR_H_
#define FUSE_NET_FAULT_INJECTOR_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/serialize.h"
#include "common/time.h"
#include "sim/environment.h"

namespace fuse {

class FaultInjector {
 public:
  // Fail-stop crash / full network disconnect of one host (the transport
  // additionally clears that host's connections on crash).
  void SetHostDown(HostId h, bool down);
  bool IsHostDown(HostId h) const { return down_hosts_.contains(h); }

  // Blocks the pair symmetrically (intransitive connectivity failures).
  void BlockPair(HostId a, HostId b);
  void UnblockPair(HostId a, HostId b);

  // Blocks traffic from `from` to `to` only (asymmetric connectivity: acks
  // and replies still flow the other way until the protocol gives up).
  void BlockOneWay(HostId from, HostId to);
  void UnblockOneWay(HostId from, HostId to);

  // Partitions `group` from all other hosts: messages cross the boundary in
  // neither direction. Multiple partitions may be layered; a host may appear
  // in at most one group at a time.
  void PartitionHosts(const std::vector<HostId>& group);
  void ClearPartitions();

  // True if traffic from a to b is currently impossible. Directional: a
  // one-way block from b to a does not block a to b.
  bool IsBlocked(HostId a, HostId b) const;

  // --- gray-failure rules (slow-but-alive, skew, bursts, reordering) ---

  // Extra one-way latency for messages from `from` to `to` (zero clears).
  void SetLinkDelay(HostId from, HostId to, Duration extra);
  // Slow-but-alive host: extra latency on every message into or out of `h`
  // (zero clears). Composes additively with link delays.
  void SetHostDelay(HostId h, Duration extra);
  // Total extra one-way latency for a message from a to b.
  Duration ExtraDelay(HostId a, HostId b) const;

  // Host `h`'s timers run at `rate` x nominal speed (1.0 clears). A fast
  // clock (rate > 1) shortens ping periods and timeouts — the classic
  // false-positive-detector gray failure.
  void SetClockRate(HostId h, double rate);
  double ClockRate(HostId h) const;

  // Timed rule: traffic touching `h` (or all traffic when `h` is invalid) is
  // additionally dropped with probability `p` while now is in [from, until).
  void AddLossBurst(HostId h, TimePoint from, TimePoint until, double p);
  void ClearLossBursts();
  // Combined extra drop probability for one a->b attempt at `now`.
  double BurstLossProbability(HostId a, HostId b, TimePoint now) const;
  bool HasLossBursts() const { return !loss_bursts_.empty(); }

  // Uniform extra delay in [0, max] per message touching `h` (invalid = all
  // traffic); zero clears. Delivery order across connections scrambles.
  void SetReorderJitter(HostId h, Duration max);
  // Largest applicable jitter bound for a->b traffic (zero = none).
  Duration ReorderJitterFor(HostId a, HostId b) const;

  size_t NumDownHosts() const { return down_hosts_.size(); }

  // Wire form of the full rule set, for replicating the rules into worker
  // processes (the process deployment evaluates them sender-side in each
  // worker). Deterministic for a given state (entries are sorted); note the
  // partition group ids themselves are mutation-history-dependent, so two
  // injectors expressing the same reachability may still encode differently.
  void EncodeTo(Writer& w) const;
  // Replaces this rule set with the decoded one. Returns false (leaving the
  // rules in an unspecified but valid state) on a malformed buffer.
  bool DecodeFrom(Reader& r);

 private:
  struct LossBurst {
    HostId host;  // invalid = applies to all traffic
    TimePoint from;
    TimePoint until;
    double probability = 0.0;
  };

  static uint64_t PairKey(HostId a, HostId b) {
    const uint64_t lo = a.value < b.value ? a.value : b.value;
    const uint64_t hi = a.value < b.value ? b.value : a.value;
    return (lo << 32) ^ hi;
  }
  // Ordered (directional) pair key; host ids are small sequential values.
  static uint64_t OrderedKey(HostId from, HostId to) {
    return (from.value << 32) | to.value;
  }

  std::unordered_set<HostId> down_hosts_;
  std::unordered_set<uint64_t> blocked_pairs_;
  std::unordered_set<uint64_t> oneway_blocked_;
  // host -> partition group id; hosts in different groups cannot talk.
  std::unordered_map<HostId, uint32_t> partition_of_;
  uint32_t next_partition_id_ = 1;

  std::unordered_map<uint64_t, Duration> link_delay_;  // ordered pair -> extra
  std::unordered_map<HostId, Duration> host_delay_;
  std::unordered_map<HostId, double> clock_rate_;  // absent = 1.0
  std::vector<LossBurst> loss_bursts_;
  std::unordered_map<HostId, Duration> reorder_jitter_;
  Duration global_reorder_jitter_;
};

// Per-host Environment facade over a base environment (the simulation)
// implementing the clock-rate rule: Schedule() durations are
// divided by the host's rate (rate 2.0 = the host's timers fire in half the
// nominal time, so it pings and declares timeouts early), while Now() stays
// the base's. This models relative timer-rate drift — the QoS-relevant effect
// — without forking the timeline. At the default rate 1.0 the facade is a
// pure passthrough, so schedules without skew rules are bit-identical to runs
// predating it.
class SkewedHostEnv final : public Environment {
 public:
  SkewedHostEnv(Environment& base, const FaultInjector& faults, HostId host)
      : base_(base), faults_(faults), host_(host) {}

  TimePoint Now() const override { return base_.Now(); }
  TimerId Schedule(Duration d, UniqueFunction fn) override {
    const double rate = faults_.ClockRate(host_);
    if (rate == 1.0) {
      return base_.Schedule(d, std::move(fn));
    }
    return base_.Schedule(d * (1.0 / rate), std::move(fn));
  }
  bool Cancel(TimerId id) override { return base_.Cancel(id); }
  Rng& rng() override { return base_.rng(); }
  Metrics& metrics() override { return base_.metrics(); }

 private:
  Environment& base_;
  const FaultInjector& faults_;
  const HostId host_;
};

}  // namespace fuse

#endif  // FUSE_NET_FAULT_INJECTOR_H_
