// ShardedFabric: the messaging layer for the sharded simulator
// (sim/sharded_sim.h). Same analytic TCP-over-lossy-topology model as
// SimFabric — per-attempt route survival draws in both directions,
// exponential backoff from the minimum RTO, kBroken after the retransmission
// limit, per-host send-CPU serialization, incarnation-checked delivery —
// reorganized so every piece of mutable state has exactly one owning shard:
//
//   * all per-send state (attempt counter, callback, payload) lives on the
//     *sender's* shard in a pooled entry; retransmission attempts, loss
//     draws, and latency draws all execute there, so the receiving shard
//     never contributes randomness to a message in flight;
//   * a delivery is resolved entirely at the successful attempt: the sender
//     computes the arrival time, clamps it against the per-(src,dst) FIFO
//     watermark, and ships a self-contained closure — same-shard via a plain
//     ScheduleAt, cross-shard via the shard outbox that ShardedSim merges
//     canonically at the epoch barrier;
//   * host up/incarnation flags are written only at barriers (CrashHost /
//     RestartHost run on the control thread with workers parked) and read
//     freely during epochs, so a crash is visible to every shard from the
//     next epoch on without any locking.
//
// Simplifications relative to SimFabric, acceptable because the sharded
// engine targets large-scale runs under CostModel::Simulator(): connection
// setup is not modeled (no SYN handshake, no kUnreachable connect failures —
// persistent blocks surface as kBroken after the data-retry budget), and
// in-order delivery is per-channel watermark-based rather than full
// head-of-line blocking (a retransmitted message may be overtaken by later
// traffic on the same pair). Crashes do not proactively break peers'
// in-flight sends; peers discover dead hosts through ping timeouts, exactly
// as FUSE's failure detection expects.
#ifndef FUSE_TRANSPORT_SHARDED_FABRIC_H_
#define FUSE_TRANSPORT_SHARDED_FABRIC_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_map.h"
#include "common/pool.h"
#include "common/status.h"
#include "net/network.h"
#include "sim/environment.h"
#include "sim/sharded_sim.h"
#include "transport/cost_model.h"
#include "transport/transport.h"

namespace fuse {

class ShardedFabric final : public TransportLayer {
 public:
  // `expected_hosts` is the cluster size; once that many hosts have been
  // materialized (all of them, before the sim first runs), the fabric
  // computes the conservative lookahead from the actual host placement and
  // installs it on the sim. `hosts_per_machine` fixes the partition block
  // alignment so co-located hosts never straddle a shard boundary.
  ShardedFabric(ShardedSim& sim, SimNetwork& net, CostModel cost, TcpParams tcp,
                size_t expected_hosts, int hosts_per_machine);

  // Host partition: contiguous machine-aligned index blocks.
  uint32_t ShardOf(HostId h) const {
    const uint64_t s = h.value / block_;
    const uint64_t cap = sim_.num_shards() - 1;
    return static_cast<uint32_t>(s < cap ? s : cap);
  }
  Shard& ShardFor(HostId h) { return sim_.shard(ShardOf(h)); }

  // Materializes host state (barrier context only: host creation, Build).
  // The host's environment is its owning shard wrapped in the clock-skew
  // facade (SkewedHostEnv, net/fault_injector.h).
  Transport* TransportFor(HostId host);

  // Barrier-context crash/restart (see header comment).
  void CrashHost(HostId host);
  void RestartHost(HostId host);
  bool IsHostUp(HostId host) const;

  ShardedSim& sim() { return sim_; }
  SimNetwork& network() { return net_; }
  const CostModel& cost_model() const { return cost_; }
  const TcpParams& tcp_params() const { return tcp_; }
  Duration Rtt(HostId a, HostId b) const {
    return net_.GetPath(a, b).latency + net_.GetPath(b, a).latency;
  }

  void SendFrom(HostId from, WireMessage msg, Transport::SendCallback cb) override;

 private:
  struct SendState {
    HostId from;
    HostId to;
    uint64_t from_incarnation = 0;
    uint64_t to_incarnation = 0;
    WireMessage msg;  // moved out when the first surviving attempt delivers
    Transport::SendCallback cb;
    uint64_t wire_size = 0;
    MsgCategory category = MsgCategory::kApp;
    int attempt = 0;
    bool delivered = false;
  };
  using SendRef = Pool<SendState>::Ref;

  struct HostState {
    std::unique_ptr<SkewedHostEnv> host_env;
    std::unique_ptr<Transport> transport;  // handlers: owning shard + barriers
    uint64_t incarnation = 1;  // barrier-written, read by any shard
    bool up = true;            // barrier-written, read by any shard
    // Sender-shard-owned:
    TimePoint send_busy_until;        // send-CPU serialization
    FlatMap<TimePoint> fifo_watermark;  // last scheduled arrival per dst host
  };

  // Per-shard send-state pool so allocation stays shard-local.
  struct PerShard {
    Pool<SendState> send_pool;
  };

  HostState& StateOf(HostId h);
  const HostState* FindState(HostId h) const;
  void Attempt(uint32_t src_shard, SendRef ref);
  void Deliver(HostId to, uint64_t incarnation, const WireMessage& msg);
  void FinalizeLookahead();

  static void InvokeCallback(Transport::SendCallback cb, Status status) {
    if (cb) {
      cb(status);
    }
  }

  ShardedSim& sim_;
  SimNetwork& net_;
  CostModel cost_;
  TcpParams tcp_;
  uint64_t block_;  // hosts per shard (machine-aligned)
  size_t expected_hosts_;
  size_t materialized_hosts_ = 0;
  std::vector<HostState> hosts_;  // dense, indexed by HostId::value
  std::vector<PerShard> per_shard_;
};

}  // namespace fuse

#endif  // FUSE_TRANSPORT_SHARDED_FABRIC_H_
