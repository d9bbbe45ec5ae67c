#include "transport/tcp_model.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace fuse {

SimFabric::SimFabric(Environment& env, SimNetwork& net, CostModel cost, TcpParams tcp)
    : env_(env),
      net_(net),
      cost_(cost),
      tcp_(tcp),
      hosts_(net.faults(), this, cost.SendOverhead()) {}

SimFabric::Connection& SimFabric::ConnOf(HostId a, HostId b) {
  Connection& conn = connections_.FindOrInsert(PairKey(a, b));
  if (!conn.path_cached) {
    const HostId lo = a < b ? a : b;
    const HostId hi = a < b ? b : a;
    conn.path[0] = net_.GetPath(lo, hi);
    conn.path[1] = net_.GetPath(hi, lo);
    conn.path_cached = true;
  }
  return conn;
}

void SimFabric::CrashHost(HostId host) {
  hosts_.Crash(host);
  // Break every connection touching this host. Peers' outstanding callbacks
  // get kBroken. Collect the keys first and sort them (canonical low-pair
  // order): the callbacks BreakConnection fires may send messages, which can
  // insert new connections and rehash the table mid-iteration.
  std::vector<uint64_t> affected;
  connections_.ForEach([&](uint64_t key, Connection& conn) {
    const HostId lo(key >> 32);
    const HostId hi(key & 0xffffffffULL);
    if ((lo == host || hi == host) &&
        (conn.state != Connection::State::kClosed || !conn.pending.empty() ||
         !conn.inflight.empty())) {
      affected.push_back(key);
    }
  });
  std::sort(affected.begin(), affected.end());
  for (const uint64_t key : affected) {
    BreakConnection(connections_.Find(key));
  }
}

void SimFabric::InvokeCallback(Transport::SendCallback cb, Status status) {
  if (cb) {
    cb(status);
  }
}

void SimFabric::SendFrom(HostId from, WireMessage msg, Transport::SendCallback cb) {
  if (!hosts_.At(from).up) {
    InvokeCallback(std::move(cb), Status::Cancelled("sender crashed"));
    return;
  }
  const HostId to = msg.to;
  FUSE_CHECK(to.valid() && to != from) << "bad destination";
  Connection& conn = ConnOf(from, to);
  switch (conn.state) {
    case Connection::State::kOpen:
      StartDataSend(from, &conn, std::move(msg), std::move(cb));
      return;
    case Connection::State::kConnecting:
      conn.pending.push_back(PendingSend{std::move(msg), std::move(cb)});
      return;
    case Connection::State::kClosed:
      conn.pending.push_back(PendingSend{std::move(msg), std::move(cb)});
      if (!cost_.model_connection_setup) {
        conn.state = Connection::State::kOpen;
        FlushPending(&conn);
      } else {
        StartHandshake(from, to, &conn);
      }
      return;
  }
}

void SimFabric::StartHandshake(HostId initiator, HostId peer, Connection* conn) {
  conn->state = Connection::State::kConnecting;
  AttemptConnect(initiator, peer, conn->epoch, 0);
}

void SimFabric::AttemptConnect(HostId initiator, HostId peer, uint64_t epoch, int attempt) {
  Connection& conn = ConnOf(initiator, peer);
  if (conn.epoch != epoch || conn.state != Connection::State::kConnecting) {
    return;  // superseded
  }
  if (attempt >= tcp_.max_connect_attempts) {
    conn.state = Connection::State::kClosed;
    conn.epoch++;
    auto pending = std::move(conn.pending);
    conn.pending.clear();
    // From here on only locals: the callbacks may send and rehash the table.
    for (auto& p : pending) {
      InvokeCallback(std::move(p.cb), Status::Unreachable("connect failed"));
    }
    return;
  }
  // SYN + SYNACK: both must survive, and neither direction may be blocked.
  env_.metrics().IncMessage(MsgCategory::kTransportControl, WireMessage::kHeaderBytes);
  const int dir = initiator < peer ? 0 : 1;
  const FaultInjector& faults = net_.faults();
  const bool blocked =
      faults.IsBlocked(initiator, peer) || faults.IsBlocked(peer, initiator);
  // Loss bursts multiply the per-attempt survival probability, so a rule set
  // without bursts draws the exact same Bernoulli sequence as before.
  const double burst =
      faults.HasLossBursts() ? faults.BurstLossProbability(initiator, peer, env_.Now()) : 0.0;
  const bool ok =
      !blocked &&
      env_.rng().Bernoulli(net_.RouteSuccessProbabilityForHops(conn.path[dir].hops) *
                           (1.0 - burst)) &&
      env_.rng().Bernoulli(net_.RouteSuccessProbabilityForHops(conn.path[1 - dir].hops) *
                           (1.0 - burst));
  if (ok) {
    env_.metrics().IncMessage(MsgCategory::kTransportControl, WireMessage::kHeaderBytes);
    const Duration rtt = conn.path[0].latency + conn.path[1].latency +
                         faults.ExtraDelay(initiator, peer) + faults.ExtraDelay(peer, initiator);
    env_.Schedule(rtt, [this, initiator, peer, epoch] {
      Connection& c = ConnOf(initiator, peer);
      if (c.epoch != epoch || c.state != Connection::State::kConnecting) {
        return;
      }
      c.state = Connection::State::kOpen;
      FlushPending(&c);
    });
  } else {
    const Duration backoff = tcp_.connect_rto * (int64_t{1} << attempt);
    env_.Schedule(backoff, [this, initiator, peer, epoch, attempt] {
      AttemptConnect(initiator, peer, epoch, attempt + 1);
    });
  }
}

void SimFabric::FlushPending(Connection* conn) {
  auto pending = std::move(conn->pending);
  conn->pending.clear();
  for (auto& p : pending) {
    StartDataSend(p.msg.from, conn, std::move(p.msg), std::move(p.cb));
  }
}

void SimFabric::StartDataSend(HostId from, Connection* conn, WireMessage msg,
                              Transport::SendCallback cb) {
  const HostId to = msg.to;
  const uint64_t dest_incarnation = hosts_.At(to).incarnation;
  const SlotRef slot_ref = slot_pool_.Alloc();
  const SendRef st_ref = send_pool_.Alloc();
  DeliverySlot& slot = *slot_pool_.Get(slot_ref);
  DataSendState& st = *send_pool_.Get(st_ref);
  st.to = to;
  st.wire_size = msg.WireSize();
  st.category = msg.category;
  st.cb = std::move(cb);
  st.conn_epoch = conn->epoch;
  st.slot = slot_ref;
  slot.msg = std::move(msg);
  slot.dest_incarnation = dest_incarnation;
  st.inflight_pos = static_cast<uint32_t>(conn->inflight.size());
  conn->inflight.push_back(st_ref);
  // Enqueue for in-order delivery on this direction.
  const int dir = from < to ? 0 : 1;
  conn->delivery_queue[dir].push_back(slot_ref);
  const TimePoint depart = hosts_.Depart(from, env_.Now());
  env_.Schedule(depart - env_.Now(), [this, from, st_ref] { AttemptData(from, st_ref); });
}

void SimFabric::RemoveInflight(Connection& conn, SendRef ref) {
  DataSendState* st = send_pool_.Get(ref);
  const size_t pos = st->inflight_pos;
  if (pos >= conn.inflight.size() || conn.inflight[pos] != ref) {
    return;  // already detached (e.g. by BreakConnection)
  }
  conn.inflight[pos] = conn.inflight.back();
  send_pool_.Get(conn.inflight[pos])->inflight_pos = static_cast<uint32_t>(pos);
  conn.inflight.pop_back();
}

void SimFabric::AttemptData(HostId from, SendRef ref) {
  DataSendState* st = send_pool_.Get(ref);
  if (st == nullptr) {
    return;  // the connection broke and BreakConnection reclaimed the state
  }
  st->retry = TimerId();  // if this was the backoff event, it has now fired
  const HostId to = st->to;
  Connection& conn = ConnOf(from, to);
  if (conn.epoch != st->conn_epoch) {
    // Safety net: BreakConnection reclaims inflight state when it bumps the
    // epoch, so a live state with a stale epoch should not occur; fail it
    // cleanly if a future path ever bumps the epoch without draining.
    Transport::SendCallback cb = std::move(st->cb);
    send_pool_.Release(ref);
    InvokeCallback(std::move(cb), Status::Broken("connection reset"));
    return;
  }
  if (st->attempt >= tcp_.max_data_attempts) {
    RemoveInflight(conn, ref);
    Transport::SendCallback cb = std::move(st->cb);
    send_pool_.Release(ref);
    BreakConnection(&conn);  // reclaims the delivery slot with the queues
    InvokeCallback(std::move(cb), Status::Broken("retransmission limit"));
    return;
  }
  st->attempt++;
  env_.metrics().IncMessage(st->category, st->wire_size);
  const int dir = from < to ? 0 : 1;
  const SimNetwork::Attempt v =
      net_.DrawAttempt(from, to, conn.path[dir], conn.path[1 - dir], env_.Now(), env_.rng());

  // A stale slot ref means the message was already delivered (a lost-ack
  // retransmission): nothing left to mark ready.
  if (v.data_ok) {
    DeliverySlot* slot = slot_pool_.Get(st->slot);
    if (slot != nullptr && !slot->ready) {
      // Jitter lands in the slot's ready_time, so in-order delivery per
      // connection still holds via the watermark.
      slot->ready = true;
      slot->ready_time = env_.Now() + v.one_way;
      FlushDeliveries(&conn, dir);
    }
  }
  if (v.ack_ok) {
    RemoveInflight(conn, ref);
    Transport::SendCallback cb = std::move(st->cb);
    send_pool_.Release(ref);
    env_.Schedule(v.rtt, [this, cb = std::move(cb)]() mutable {
      InvokeCallback(std::move(cb), Status::Ok());
    });
    return;
  }
  // Retransmit with exponential backoff. The closure carries only the pool
  // ref: if the connection breaks first, BreakConnection cancels the event
  // and reclaims the state, and a stale ref resolves to nothing.
  st->retry = env_.Schedule(tcp_.RetransmitBackoff(v.rtt, st->attempt),
                            [this, from, ref] { AttemptData(from, ref); });
}

void SimFabric::FlushDeliveries(Connection* conn, int dir) {
  // TCP in-order delivery with head-of-line blocking: deliver the longest
  // ready prefix of the queue; anything behind an unready slot waits.
  SlotQueue& queue = conn->delivery_queue[dir];
  while (!queue.empty()) {
    const SlotRef ref = queue.front();
    const DeliverySlot* slot = slot_pool_.Get(ref);
    if (!slot->ready) {
      break;
    }
    queue.pop_front();
    TimePoint deliver_at = slot->ready_time;
    if (deliver_at < conn->delivery_watermark[dir]) {
      deliver_at = conn->delivery_watermark[dir];
    }
    conn->delivery_watermark[dir] = deliver_at;
    // Ownership of the slot passes to the scheduled event.
    env_.Schedule(deliver_at - env_.Now(), [this, ref] { FinishDelivery(ref); });
  }
}

void SimFabric::BreakConnection(Connection* conn) {
  conn->state = Connection::State::kClosed;
  conn->epoch++;
  conn->delivery_watermark[0] = TimePoint::Zero();
  conn->delivery_watermark[1] = TimePoint::Zero();
  for (SlotQueue& queue : conn->delivery_queue) {
    while (!queue.empty()) {
      slot_pool_.Release(queue.front());
      queue.pop_front();
    }
  }
  auto pending = std::move(conn->pending);
  conn->pending.clear();
  // Drain the inflight list: cancel backoff events and reclaim the pool
  // entries now, collecting the callbacks.
  auto inflight = std::move(conn->inflight);
  conn->inflight.clear();
  std::vector<Transport::SendCallback> broken;
  broken.reserve(inflight.size());
  for (const SendRef ref : inflight) {
    DataSendState* st = send_pool_.Get(ref);
    if (st == nullptr) {
      continue;
    }
    if (st->retry.valid()) {
      env_.Cancel(st->retry);  // reclaim the backoff event immediately
    }
    broken.push_back(std::move(st->cb));
    send_pool_.Release(ref);
  }
  // Invoke callbacks last, from locals only: they may send messages, which
  // can rehash connections_ and invalidate `conn`.
  for (auto& cb : pending) {
    InvokeCallback(std::move(cb.cb), Status::Broken("connection broke"));
  }
  for (auto& cb : broken) {
    InvokeCallback(std::move(cb), Status::Broken("connection broke"));
  }
}

void SimFabric::FinishDelivery(SlotRef ref) {
  DeliverySlot* slot = slot_pool_.Get(ref);
  if (slot == nullptr) {
    return;
  }
  // Move everything out and reclaim the entry before running the handler:
  // the handler may send, and pool growth would invalidate `slot`.
  const WireMessage msg = std::move(slot->msg);
  const uint64_t incarnation = slot->dest_incarnation;
  slot_pool_.Release(ref);
  hosts_.Deliver(incarnation, msg);
}

}  // namespace fuse
