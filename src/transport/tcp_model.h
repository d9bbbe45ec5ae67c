// SimFabric: the simulator's messaging layer — TCP over the lossy topology,
// modeled analytically.
//
//   * each transmission attempt's verdict — directional blocks, loss bursts,
//     route survival in each direction ((1 - per_link_loss)^hops), reorder
//     jitter, extra delay — comes from SimNetwork::DrawAttempt;
//   * lost attempts retransmit after TcpParams::RetransmitBackoff, and after
//     max_data_attempts the sender's callback reports kBroken (the paper,
//     section 7.6: "TCP sockets will break under such adverse network
//     conditions");
//   * the host table (sim_hosts.h) holds each host's endpoint, incarnation
//     and up flag, serializes a host's sends on its send CPU (the XML
//     messaging cost of section 7.4), and drops deliveries addressed to a
//     previous incarnation;
//   * one cached connection per host pair; under CostModel::Cluster() the
//     first message pays a SYN handshake, which produces the 1st-vs-2nd RPC
//     split of Figure 6, and a handshake that never completes fails the
//     queued sends with kUnreachable;
//   * in-order delivery per connection direction with head-of-line
//     blocking: a segment that needs retransmission holds back everything
//     behind it;
//   * a crash breaks every connection touching the host, so peers' pending
//     sends fail with kBroken at once.
//
// The send/deliver fast path is allocation-free and index-addressed:
// connections live in an open-addressed table keyed by the packed host pair,
// and the per-send retransmission/delivery state in generation-tagged pools
// (common/pool.h) whose refs are carried through event closures instead of
// shared_ptrs. WireMessage payloads are ref-counted PayloadBufs, so the
// delivery slot and the retransmission bookkeeping share one buffer.
#ifndef FUSE_TRANSPORT_TCP_MODEL_H_
#define FUSE_TRANSPORT_TCP_MODEL_H_

#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "common/pool.h"
#include "common/status.h"
#include "net/network.h"
#include "sim/environment.h"
#include "transport/cost_model.h"
#include "transport/sim_hosts.h"
#include "transport/transport.h"

namespace fuse {

class SimFabric final : public TransportLayer {
 public:
  SimFabric(Environment& env, SimNetwork& net, CostModel cost, TcpParams tcp = TcpParams());

  // Returns the transport for `host`, created on first use over the base
  // env (see SimHostTable::TransportFor).
  Transport* TransportFor(HostId host) { return hosts_.TransportFor(host, env_); }

  // Fail-stop crash (SimHostTable::Crash) that also breaks every connection
  // touching the host.
  void CrashHost(HostId host);
  void RestartHost(HostId host) { hosts_.Restart(host); }
  bool IsHostUp(HostId host) const { return hosts_.IsUp(host); }

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

  // Host ids are small sequential values (< 2^32), so the packed key is
  // invertible: lo = key >> 32, hi = key & 0xffffffff.
  static uint64_t PairKey(HostId a, HostId b) {
    const uint64_t lo = a.value < b.value ? a.value : b.value;
    const uint64_t hi = a.value < b.value ? b.value : a.value;
    return (lo << 32) | hi;
  }

  Connection& ConnOf(HostId a, HostId b);
  void StartHandshake(HostId initiator, HostId peer, Connection* conn);
  void AttemptConnect(HostId initiator, HostId peer, uint64_t epoch, int attempt);
  void FlushPending(Connection* conn);
  void StartDataSend(HostId from, Connection* conn, WireMessage msg, Transport::SendCallback cb);
  void AttemptData(HostId from, SendRef ref);
  void RemoveInflight(Connection& conn, SendRef ref);
  void FlushDeliveries(Connection* conn, int dir);
  void BreakConnection(Connection* conn);
  // Resolves a scheduled delivery: reclaims the slot, then dispatches.
  void FinishDelivery(SlotRef ref);
  void InvokeCallback(Transport::SendCallback cb, Status status);

  Environment& env_;
  SimNetwork& net_;
  CostModel cost_;
  TcpParams tcp_;
  SimHostTable hosts_;
  FlatMap<Connection> connections_;  // keyed by PairKey
  Pool<DataSendState> send_pool_;
  Pool<DeliverySlot> slot_pool_;
};

}  // namespace fuse

#endif  // FUSE_TRANSPORT_TCP_MODEL_H_
