#include "transport/sharded_fabric.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "transport/message.h"

namespace fuse {

ShardedFabric::ShardedFabric(ShardedSim& sim, SimNetwork& net, CostModel cost, TcpParams tcp,
                             size_t expected_hosts, int hosts_per_machine)
    : sim_(sim), net_(net), cost_(cost), tcp_(tcp), expected_hosts_(expected_hosts) {
  FUSE_CHECK(expected_hosts > 0) << "sharded fabric needs a host count up front";
  const uint64_t align = hosts_per_machine > 0 ? static_cast<uint64_t>(hosts_per_machine) : 1;
  uint64_t per = (expected_hosts + sim_.num_shards() - 1) / sim_.num_shards();
  per = (per + align - 1) / align * align;  // co-located hosts share a shard
  block_ = per > 0 ? per : align;
  hosts_.reserve(expected_hosts);
  per_shard_.resize(sim_.num_shards());
}

ShardedFabric::HostState& ShardedFabric::StateOf(HostId h) {
  if (h.value >= hosts_.size()) {
    hosts_.resize(h.value + 1);
  }
  return hosts_[h.value];
}

const ShardedFabric::HostState* ShardedFabric::FindState(HostId h) const {
  if (h.value >= hosts_.size()) {
    return nullptr;
  }
  return &hosts_[h.value];
}

Transport* ShardedFabric::TransportFor(HostId host) {
  HostState& hs = StateOf(host);
  if (!hs.transport) {
    hs.host_env = std::make_unique<SkewedHostEnv>(ShardFor(host), net_.faults(), host);
    hs.transport = std::make_unique<Transport>(host, *hs.host_env, this);
    // Once the full cluster is materialized (Build creates every host before
    // the sim first runs), the host placement is final and the conservative
    // lookahead can be computed from it.
    if (++materialized_hosts_ == expected_hosts_) {
      FinalizeLookahead();
    }
  }
  return hs.transport.get();
}

void ShardedFabric::CrashHost(HostId host) {
  HostState& hs = StateOf(host);
  hs.up = false;
  hs.incarnation++;
  if (hs.transport != nullptr) {
    hs.transport->UnregisterAllHandlers();
  }
  hs.send_busy_until = TimePoint::Zero();
  // The next incarnation starts fresh FIFO channels. In-flight sends carry
  // the old incarnation and drop themselves lazily at their next attempt.
  hs.fifo_watermark = FlatMap<TimePoint>();
  net_.faults().SetHostDown(host, true);
}

void ShardedFabric::RestartHost(HostId host) {
  HostState& hs = StateOf(host);
  hs.up = true;
  hs.incarnation++;
  if (hs.transport != nullptr) {
    hs.transport->UnregisterAllHandlers();
  }
  net_.faults().SetHostDown(host, false);
}

bool ShardedFabric::IsHostUp(HostId host) const {
  const HostState* hs = FindState(host);
  if (hs == nullptr) {
    return !net_.faults().IsHostDown(host);
  }
  return hs->up;
}

void ShardedFabric::SendFrom(HostId from, WireMessage msg, Transport::SendCallback cb) {
  {
    HostState& sender = StateOf(from);
    if (!sender.up) {
      InvokeCallback(std::move(cb), Status::Cancelled("sender crashed"));
      return;
    }
  }
  const HostId to = msg.to;
  FUSE_CHECK(to.valid() && to != from) << "bad destination";
  // Take both incarnations by value before holding any reference: StateOf(to)
  // may grow hosts_. Both fields are barrier-stable, so reading the
  // destination's from the sender's shard is race-free.
  const uint64_t from_inc = StateOf(from).incarnation;
  const uint64_t to_inc = StateOf(to).incarnation;

  const uint32_t src_shard = ShardOf(from);
  Shard& shard = sim_.shard(src_shard);
  // Per-send CPU occupancy: sends from one host leave serialized (§7.4).
  const Duration overhead = cost_.SendOverhead();
  TimePoint depart = shard.Now();
  if (!overhead.IsZero()) {
    HostState& sender = StateOf(from);
    const TimePoint busy_from = sender.send_busy_until > depart ? sender.send_busy_until : depart;
    depart = busy_from + overhead;
    sender.send_busy_until = depart;
  }

  Pool<SendState>& pool = per_shard_[src_shard].send_pool;
  const SendRef ref = pool.Alloc();
  SendState& st = *pool.Get(ref);
  st.from = from;
  st.to = to;
  st.from_incarnation = from_inc;
  st.to_incarnation = to_inc;
  st.wire_size = msg.WireSize();
  st.category = msg.category;
  st.msg = std::move(msg);
  st.cb = std::move(cb);
  shard.queue().ScheduleAt(depart, [this, src_shard, ref] { Attempt(src_shard, ref); });
}

void ShardedFabric::Attempt(uint32_t src_shard, SendRef ref) {
  Pool<SendState>& pool = per_shard_[src_shard].send_pool;
  SendState* st = pool.Get(ref);
  if (st == nullptr) {
    return;
  }
  const HostId from = st->from;
  const HostId to = st->to;
  {
    // Lazy sender-crash cleanup: a crash (barrier context) does not walk
    // in-flight sends; each one notices the incarnation bump at its next
    // attempt and evaporates — the callback died with the old incarnation.
    const HostState& sender = hosts_[from.value];
    if (!sender.up || sender.incarnation != st->from_incarnation) {
      pool.Release(ref);
      return;
    }
  }
  if (st->attempt >= tcp_.max_data_attempts) {
    Transport::SendCallback cb = std::move(st->cb);
    pool.Release(ref);
    InvokeCallback(std::move(cb), Status::Broken("retransmission limit"));
    return;
  }
  st->attempt++;
  Shard& shard = sim_.shard(src_shard);
  shard.metrics().IncMessage(st->category, st->wire_size);
  const FaultInjector& faults = net_.faults();
  const Topology::PathInfo fwd = net_.GetPath(from, to);
  const Topology::PathInfo rev = net_.GetPath(to, from);
  // Same verdict structure as SimFabric::AttemptData — directional blocks,
  // per-route survival, optional burst loss — with every draw taken from the
  // sender's shard RNG in a fixed order.
  const bool data_blocked = faults.IsBlocked(from, to);
  const bool ack_blocked = faults.IsBlocked(to, from);
  const double burst =
      faults.HasLossBursts() ? faults.BurstLossProbability(from, to, shard.Now()) : 0.0;
  Rng& rng = shard.rng();
  const bool data_ok =
      !data_blocked &&
      rng.Bernoulli(net_.RouteSuccessProbabilityForHops(fwd.hops) * (1.0 - burst));
  const bool ack_ok =
      data_ok && !ack_blocked &&
      rng.Bernoulli(net_.RouteSuccessProbabilityForHops(rev.hops) * (1.0 - burst));
  const Duration fwd_extra = faults.ExtraDelay(from, to);
  Duration one_way = fwd.latency + fwd_extra;
  const Duration jitter_max = faults.ReorderJitterFor(from, to);
  if (!jitter_max.IsZero()) {
    // Drawn only when a reorder rule is active, preserving the rng sequence
    // of jitter-free schedules.
    one_way += Duration::Micros(rng.UniformInt(0, jitter_max.ToMicros()));
  }
  const Duration rtt = fwd.latency + rev.latency + fwd_extra + faults.ExtraDelay(to, from);

  if (data_ok && !st->delivered) {
    // First attempt to survive the route carries the payload; later lost-ack
    // retransmissions are duplicates the receiver-side already consumed.
    st->delivered = true;
    TimePoint deliver_at = shard.Now() + one_way;
    HostState& sender = hosts_[from.value];
    TimePoint& watermark = sender.fifo_watermark.FindOrInsert(to.value);
    if (deliver_at < watermark) {
      deliver_at = watermark;  // per-channel FIFO: never overtake earlier traffic
    }
    watermark = deliver_at;
    const uint64_t inc = st->to_incarnation;
    const uint32_t dst_shard = ShardOf(to);
    WireMessage payload = std::move(st->msg);
    auto deliver = [this, inc, m = std::move(payload)] { Deliver(m.to, inc, m); };
    if (dst_shard == src_shard) {
      shard.queue().ScheduleAt(deliver_at, std::move(deliver));
    } else {
      shard.PushCrossShard(dst_shard, deliver_at, std::move(deliver));
    }
  }
  if (data_ok && ack_ok) {
    Transport::SendCallback cb = std::move(st->cb);
    pool.Release(ref);
    shard.queue().ScheduleAt(shard.Now() + rtt, [cb = std::move(cb)]() mutable {
      InvokeCallback(std::move(cb), Status::Ok());
    });
    return;
  }
  // Retransmit with exponential backoff from the minimum RTO.
  const Duration base_rto = std::max(tcp_.min_rto, rtt * int64_t{2});
  const Duration backoff = base_rto * (int64_t{1} << (st->attempt - 1));
  shard.queue().ScheduleAt(shard.Now() + backoff,
                           [this, src_shard, ref] { Attempt(src_shard, ref); });
}

void ShardedFabric::Deliver(HostId to, uint64_t incarnation, const WireMessage& msg) {
  const HostState* hs = FindState(to);
  if (hs == nullptr || hs->transport == nullptr) {
    return;
  }
  if (!hs->up || hs->incarnation != incarnation) {
    return;  // crashed or restarted since the packet left
  }
  hs->transport->Dispatch(msg);
}

void ShardedFabric::FinalizeLookahead() {
  // The epoch barrier distance is the minimum one-way base latency between
  // any two hosts in *different* shards. Fault rules only ever add latency
  // (delays, jitter) — they never shorten a path — and clock skew scales
  // timer durations, not network latency, so this stays a valid lower bound
  // under every fault schedule.
  const Topology& topo = net_.topology();
  const size_t num_as = topo.NumAs();

  // Pass 1: same-router cross-shard pairs pin the minimum (GetPath's
  // same-router case is a flat 200us local hop — below anything the AS-level
  // aggregation can see). Track each host-bearing router's owning shard.
  std::unordered_map<uint64_t, uint32_t> router_shard;
  router_shard.reserve(expected_hosts_);
  for (size_t h = 0; h < expected_hosts_; ++h) {
    const HostId host(h);
    const uint32_t s = ShardOf(host);
    const uint64_t r = net_.RouterOf(host).value;
    const auto [it, inserted] = router_shard.emplace(r, s);
    if (!inserted && it->second != s) {
      sim_.SetLookahead(Duration::Micros(200));
      return;
    }
  }

  // Pass 2: per-AS two lowest core distances held by *distinct* shards, over
  // the per-(shard, router) hosts. Within one router all hosts share a shard
  // (pass 1), so distinct routers suffice for distinctness bookkeeping.
  constexpr uint64_t kInf = UINT64_MAX;
  struct Best2 {
    uint64_t core1 = kInf;
    uint32_t shard1 = 0;
    uint64_t core2 = kInf;
    uint32_t shard2 = 0;
  };
  std::vector<Best2> best(num_as);
  std::vector<uint32_t> touched;  // ASes that actually host nodes
  for (const auto& [router_value, s] : router_shard) {
    const Topology::Router& r = topo.router(RouterId(router_value));
    Best2& b = best[r.as_index];
    if (b.core1 == kInf && b.core2 == kInf) {
      touched.push_back(r.as_index);
    }
    const uint64_t c = r.to_core_lat_us;
    if (s == b.shard1 && b.core1 != kInf) {
      b.core1 = std::min(b.core1, c);
    } else if (c < b.core1) {
      b.core2 = b.core1;
      b.shard2 = b.shard1;
      b.core1 = c;
      b.shard1 = s;
    } else if (s == b.shard2 && b.core2 != kInf) {
      b.core2 = std::min(b.core2, c);
    } else if (c < b.core2) {
      b.core2 = c;
      b.shard2 = s;
    }
  }

  uint64_t min_us = kInf;
  // Same-AS, cross-shard: latency is the two core distances summed.
  for (const uint32_t a : touched) {
    const Best2& b = best[a];
    if (b.core2 != kInf) {
      min_us = std::min(min_us, b.core1 + b.core2);
    }
  }
  // Cross-AS: core distance + AS-path latency + core distance, with the two
  // endpoints forced onto different shards.
  for (size_t i = 0; i < touched.size(); ++i) {
    for (size_t j = i + 1; j < touched.size(); ++j) {
      const uint32_t a = touched[i];
      const uint32_t bi = touched[j];
      const uint32_t as_lat = topo.AsLatencyUs(a, bi);
      if (as_lat == UINT32_MAX) {
        continue;  // disconnected AS pair: no traffic, no constraint
      }
      const Best2& ba = best[a];
      const Best2& bb = best[bi];
      uint64_t ends = kInf;
      if (ba.shard1 != bb.shard1) {
        ends = ba.core1 + bb.core1;
      } else {
        if (ba.core2 != kInf) {
          ends = std::min(ends, ba.core2 + bb.core1);
        }
        if (bb.core2 != kInf) {
          ends = std::min(ends, ba.core1 + bb.core2);
        }
      }
      if (ends != kInf) {
        min_us = std::min(min_us, ends + as_lat);
      }
    }
  }

  if (min_us == kInf) {
    // No cross-shard host pair at all (S == 1, or one shard holds every
    // host). Epochs are then bounded only by control events and the horizon;
    // a large lookahead keeps barriers rare.
    sim_.SetLookahead(Duration::Minutes(60));
    return;
  }
  sim_.SetLookahead(Duration::Micros(static_cast<int64_t>(min_us)));
}

}  // namespace fuse
