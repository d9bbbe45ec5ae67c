// ShardedFabric: the messaging layer for the sharded simulator
// (sim/sharded_sim.h). It shares the classic SimFabric's network model
// (tcp_model.h): each attempt's verdict comes from SimNetwork::DrawAttempt,
// lost attempts back off by TcpParams::RetransmitBackoff until kBroken after
// max_data_attempts, and the host table (sim_hosts.h) holds the endpoints,
// incarnations, up flags and send-CPU clocks and drops deliveries addressed
// to a previous incarnation.
//
// Its own differences all follow from giving every piece of mutable state
// exactly one owning shard:
//   * all per-send state (attempt counter, callback, payload) lives on the
//     *sender's* shard in a per-shard pool, and every attempt draws from the
//     sender's shard RNG, so the receiving shard never contributes
//     randomness to a message in flight;
//   * a delivery is resolved at the first attempt that survives: the sender
//     computes the arrival time, clamps it against its per-destination FIFO
//     watermark, and ships a self-contained closure — same-shard via a plain
//     ScheduleAt, cross-shard via the shard outbox that ShardedSim merges
//     canonically at the epoch barrier;
//   * host up/incarnation flags are written only at barriers (CrashHost /
//     RestartHost run on the control thread with workers parked) and read
//     freely during epochs, so a crash is visible to every shard from the
//     next epoch on without any locking;
//   * the conservative lookahead is computed from the host placement once
//     every host exists.
//
// Left out relative to SimFabric, because the sharded engine targets
// large-scale runs under CostModel::Simulator(): connection setup is not
// modeled (the constructor rejects a cost model that asks for it; persistent
// blocks surface as kBroken after the data-retry budget, never kUnreachable),
// and in-order delivery is per-channel watermark-based rather than full
// head-of-line blocking (a retransmitted message may be overtaken by later
// traffic on the same pair). Crashes do not proactively break peers'
// in-flight sends; peers discover dead hosts through ping timeouts, exactly
// as FUSE's failure detection expects.
#ifndef FUSE_TRANSPORT_SHARDED_FABRIC_H_
#define FUSE_TRANSPORT_SHARDED_FABRIC_H_

#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "common/pool.h"
#include "common/status.h"
#include "net/network.h"
#include "sim/environment.h"
#include "sim/sharded_sim.h"
#include "transport/cost_model.h"
#include "transport/sim_hosts.h"
#include "transport/transport.h"

namespace fuse {

class ShardedFabric final : public TransportLayer {
 public:
  // `expected_hosts` is the cluster size; once that many hosts have been
  // materialized (all of them, before the sim first runs), the fabric
  // computes the conservative lookahead from the actual host placement and
  // installs it on the sim. `hosts_per_machine` fixes the partition block
  // alignment so co-located hosts never straddle a shard boundary. `cost`
  // must not ask for connection setup, which this fabric does not model.
  ShardedFabric(ShardedSim& sim, SimNetwork& net, CostModel cost, TcpParams tcp,
                size_t expected_hosts, int hosts_per_machine);

  // Host partition: contiguous machine-aligned index blocks.
  uint32_t ShardOf(HostId h) const {
    const uint64_t s = h.value / block_;
    const uint64_t cap = sim_.num_shards() - 1;
    return static_cast<uint32_t>(s < cap ? s : cap);
  }
  Shard& ShardFor(HostId h) { return sim_.shard(ShardOf(h)); }

  // Barrier context only (host creation, Build). The host's base
  // environment is its owning shard (see SimHostTable::TransportFor).
  Transport* TransportFor(HostId host);

  // Barrier-context crash/restart (see header comment).
  void CrashHost(HostId host);
  void RestartHost(HostId host) { hosts_.Restart(host); }
  bool IsHostUp(HostId host) const { return hosts_.IsUp(host); }

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

  // Per-shard send-state pool so allocation stays shard-local.
  struct PerShard {
    Pool<SendState> send_pool;
  };

  void Attempt(uint32_t src_shard, SendRef ref);
  void FinalizeLookahead();

  static void InvokeCallback(Transport::SendCallback cb, Status status) {
    if (cb) {
      cb(status);
    }
  }

  ShardedSim& sim_;
  SimNetwork& net_;
  TcpParams tcp_;
  uint64_t block_;  // hosts per shard (machine-aligned)
  size_t expected_hosts_;
  size_t materialized_hosts_ = 0;
  // Incarnations and up flags: barrier-written, read by any shard. Send-CPU
  // clocks: sender-shard-owned. Handlers: owning shard and barriers.
  SimHostTable hosts_;
  // Sender-shard-owned, indexed by the sending host: the last scheduled
  // arrival per destination host.
  std::vector<FlatMap<TimePoint>> fifo_watermark_;
  std::vector<PerShard> per_shard_;
};

}  // namespace fuse

#endif  // FUSE_TRANSPORT_SHARDED_FABRIC_H_
