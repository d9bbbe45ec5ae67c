// SimFabric: the simulator's messaging layer.
//
// Models TCP-over-the-lossy-topology analytically:
//   * one cached connection per host pair; the first message pays a SYN
//     handshake (cluster cost model) — this produces the 1st-vs-2nd RPC
//     split of Figure 6;
//   * each message transmission attempt survives the route with probability
//     (1 - per_link_loss)^hops in each direction; lost attempts retransmit
//     with exponential backoff from a 1 s minimum RTO;
//   * after max_data_attempts consecutive losses the connection *breaks*
//     (the paper, section 7.6: "TCP sockets will break under such adverse
//     network conditions") and the sender's callback reports kBroken;
//   * per-send CPU occupancy serializes a host's outgoing messages (the XML
//     messaging cost measured in section 7.4);
//   * in-order delivery per connection direction.
// Host crash/restart is modeled with incarnation numbers: deliveries and
// callbacks addressed to a previous incarnation are dropped.
//
// The send/deliver fast path is allocation-free and index-addressed: host
// state lives in a dense vector indexed by HostId, connections in an
// open-addressed table keyed by the packed host pair, and the per-send
// retransmission/delivery state in generation-tagged pools (common/pool.h)
// whose refs are carried through event closures instead of shared_ptrs.
// WireMessage payloads are ref-counted PayloadBufs, so the delivery slot and
// the retransmission bookkeeping share one buffer.
#ifndef FUSE_TRANSPORT_TCP_MODEL_H_
#define FUSE_TRANSPORT_TCP_MODEL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_map.h"
#include "common/pool.h"
#include "common/status.h"
#include "net/network.h"
#include "sim/environment.h"
#include "transport/cost_model.h"
#include "transport/transport.h"

namespace fuse {

class SimFabric final : public TransportLayer {
 public:
  SimFabric(Environment& env, SimNetwork& net, CostModel cost, TcpParams tcp = TcpParams());

  // Returns the transport for `host`, creating the fabric-side state lazily.
  // Its environment is the base env wrapped in the host's clock-skew facade
  // (SkewedHostEnv, net/fault_injector.h).
  Transport* TransportFor(HostId host);

  // Fail-stop crash: marks the host down in the fault rules, breaks all its
  // connections, clears its handlers, and bumps its incarnation so stale
  // deliveries are dropped.
  void CrashHost(HostId host);
  // Brings a crashed host back (fresh incarnation, empty handler table — the
  // node software re-registers on restart, as in the paper's trivial
  // stable-storage-free recovery).
  void RestartHost(HostId host);
  bool IsHostUp(HostId host) const;

  Environment& env() { return env_; }
  SimNetwork& network() { return net_; }
  const CostModel& cost_model() const { return cost_; }
  const TcpParams& tcp_params() const { return tcp_; }

  // Estimated round-trip latency (no loss); exposed for tests and benches.
  Duration Rtt(HostId a, HostId b) const;

  void SendFrom(HostId from, WireMessage msg, Transport::SendCallback cb) override;

 private:
  struct PendingSend {
    WireMessage msg;
    Transport::SendCallback cb;
  };

  // A message awaiting in-order delivery on one connection direction. TCP
  // delivers in order: a segment that needed retransmission blocks everything
  // behind it (head-of-line blocking). Owned by the connection's delivery
  // queue until it becomes ready and is scheduled, then by the scheduled
  // delivery event.
  struct DeliverySlot {
    WireMessage msg;
    uint64_t dest_incarnation = 0;
    bool ready = false;       // data has survived the route
    TimePoint ready_time;     // earliest possible delivery once ready
  };
  using SlotRef = Pool<DeliverySlot>::Ref;

  // Retransmission bookkeeping for one send. Pooled; referenced from the
  // connection's inflight list and from departure/backoff event closures.
  // Retransmission attempts never re-touch the payload (delivery happens via
  // the slot exactly once), so only the destination and the metrics
  // attribution are kept — no message copy at all.
  struct DataSendState {
    HostId to;
    uint64_t wire_size = 0;
    MsgCategory category = MsgCategory::kApp;
    Transport::SendCallback cb;
    uint64_t conn_epoch = 0;
    SlotRef slot;
    int attempt = 0;
    TimerId retry;            // pending backoff event, if any
    uint32_t inflight_pos = 0;  // index in the owning connection's inflight list
  };
  using SendRef = Pool<DataSendState>::Ref;

  // Vector-backed FIFO of slot refs that reuses its storage once warm (a
  // deque would reallocate chunks as the cursor advances).
  struct SlotQueue {
    std::vector<SlotRef> refs;
    size_t head = 0;

    bool empty() const { return head == refs.size(); }
    SlotRef front() const { return refs[head]; }
    void push_back(SlotRef r) { refs.push_back(r); }
    void pop_front() {
      if (++head == refs.size()) {
        refs.clear();
        head = 0;
      } else if (head >= 64 && head * 2 >= refs.size()) {
        // Compact consumed refs so a queue that never fully drains (sustained
        // head-of-line blocking) stays bounded by its live entries.
        refs.erase(refs.begin(), refs.begin() + static_cast<ptrdiff_t>(head));
        head = 0;
      }
    }
  };

  struct Connection {
    enum class State { kClosed, kConnecting, kOpen };
    State state = State::kClosed;
    uint64_t epoch = 0;  // bumped on break; stale attempts abandon themselves
    std::vector<PendingSend> pending;
    // Sends with retransmission state outstanding on this connection.
    // Breaking the connection cancels their retry timers, fails their
    // callbacks immediately, and reclaims their pool entries.
    std::vector<SendRef> inflight;
    // In-order delivery machinery per direction (0: lo->hi host id, 1: other).
    SlotQueue delivery_queue[2];
    TimePoint delivery_watermark[2];
    // One-way paths between the pair, cached on first use: host placement
    // and the topology are immutable once hosts exist, and the data path
    // queries them three times per transmission attempt.
    bool path_cached = false;
    Topology::PathInfo path[2];  // same direction indexing as delivery_queue
  };

  struct HostState {
    std::unique_ptr<SkewedHostEnv> host_env;  // created with the transport
    std::unique_ptr<Transport> transport;     // null until materialized
    uint64_t incarnation = 1;
    bool up = true;
    TimePoint send_busy_until;  // send-CPU serialization
  };

  // Host ids are small sequential values (< 2^32), so the packed key is
  // invertible: lo = key >> 32, hi = key & 0xffffffff.
  static uint64_t PairKey(HostId a, HostId b) {
    const uint64_t lo = a.value < b.value ? a.value : b.value;
    const uint64_t hi = a.value < b.value ? b.value : a.value;
    return (lo << 32) | hi;
  }

  HostState& StateOf(HostId h);
  // Read-only lookup: nullptr for hosts the fabric has never materialized.
  const HostState* FindState(HostId h) const;
  Connection& ConnOf(HostId a, HostId b);
  // Per-packet route survival probability from the cached hop count
  // (delegates to SimNetwork so the loss model lives in one place).
  double RouteSuccess(uint32_t hops) const;
  void StartHandshake(HostId initiator, HostId peer, Connection* conn);
  void AttemptConnect(HostId initiator, HostId peer, uint64_t epoch, int attempt);
  void FlushPending(HostId a, HostId b, Connection* conn);
  void StartDataSend(HostId from, Connection* conn, WireMessage msg, Transport::SendCallback cb);
  void AttemptData(HostId from, SendRef ref);
  void RemoveInflight(Connection& conn, SendRef ref);
  void FlushDeliveries(Connection* conn, int dir);
  void BreakConnection(Connection* conn);
  // Resolves a scheduled delivery: reclaims the slot, then dispatches.
  void FinishDelivery(SlotRef ref);
  void Deliver(HostId to, uint64_t incarnation, const WireMessage& msg);
  void InvokeCallback(Transport::SendCallback cb, Status status);

  Environment& env_;
  SimNetwork& net_;
  CostModel cost_;
  TcpParams tcp_;
  std::vector<HostState> hosts_;  // dense, indexed by HostId::value
  FlatMap<Connection> connections_;  // keyed by PairKey
  Pool<DataSendState> send_pool_;
  Pool<DeliverySlot> slot_pool_;
};

}  // namespace fuse

#endif  // FUSE_TRANSPORT_TCP_MODEL_H_
