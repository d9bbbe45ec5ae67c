#include "transport/sharded_fabric.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "transport/message.h"

namespace fuse {

ShardedFabric::ShardedFabric(ShardedSim& sim, SimNetwork& net, CostModel cost, TcpParams tcp,
                             size_t expected_hosts, int hosts_per_machine)
    : sim_(sim),
      net_(net),
      tcp_(tcp),
      expected_hosts_(expected_hosts),
      hosts_(net.faults(), this, cost.SendOverhead()) {
  FUSE_CHECK(expected_hosts > 0) << "sharded fabric needs a host count up front";
  FUSE_CHECK(!cost.model_connection_setup)
      << "the sharded fabric does not model connection setup; use CostModel::Simulator()";
  const uint64_t align = hosts_per_machine > 0 ? static_cast<uint64_t>(hosts_per_machine) : 1;
  uint64_t per = (expected_hosts + sim_.num_shards() - 1) / sim_.num_shards();
  per = (per + align - 1) / align * align;  // co-located hosts share a shard
  block_ = per > 0 ? per : align;
  hosts_.Reserve(expected_hosts);
  per_shard_.resize(sim_.num_shards());
}

Transport* ShardedFabric::TransportFor(HostId host) {
  const bool fresh = !hosts_.HasTransport(host);
  Transport* t = hosts_.TransportFor(host, ShardFor(host));
  if (fresh) {
    if (host.value >= fifo_watermark_.size()) {
      fifo_watermark_.resize(host.value + 1);
    }
    // Once the full cluster is materialized (Build creates every host before
    // the sim first runs), the host placement is final and the conservative
    // lookahead can be computed from it.
    if (++materialized_hosts_ == expected_hosts_) {
      FinalizeLookahead();
    }
  }
  return t;
}

void ShardedFabric::CrashHost(HostId host) {
  hosts_.Crash(host);
  // The next incarnation starts fresh FIFO channels. In-flight sends carry
  // the old incarnation and drop themselves lazily at their next attempt.
  if (host.value < fifo_watermark_.size()) {
    fifo_watermark_[host.value] = FlatMap<TimePoint>();
  }
}

void ShardedFabric::SendFrom(HostId from, WireMessage msg, Transport::SendCallback cb) {
  if (!hosts_.At(from).up) {
    InvokeCallback(std::move(cb), Status::Cancelled("sender crashed"));
    return;
  }
  const HostId to = msg.to;
  FUSE_CHECK(to.valid() && to != from) << "bad destination";
  // Both incarnations are barrier-stable, so reading the destination's from
  // the sender's shard is race-free.
  const uint64_t from_inc = hosts_.At(from).incarnation;
  const uint64_t to_inc = hosts_.At(to).incarnation;

  const uint32_t src_shard = ShardOf(from);
  Shard& shard = sim_.shard(src_shard);
  const TimePoint depart = hosts_.Depart(from, shard.Now());

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
    const SimHostTable::Host& sender = hosts_.At(from);
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
  const SimNetwork::Attempt v = net_.DrawAttempt(from, to, net_.GetPath(from, to),
                                                 net_.GetPath(to, from), shard.Now(), shard.rng());

  if (v.data_ok && !st->delivered) {
    // First attempt to survive the route carries the payload; later lost-ack
    // retransmissions are duplicates the receiver-side already consumed.
    st->delivered = true;
    TimePoint deliver_at = shard.Now() + v.one_way;
    TimePoint& watermark = fifo_watermark_[from.value].FindOrInsert(to.value);
    if (deliver_at < watermark) {
      deliver_at = watermark;  // per-channel FIFO: never overtake earlier traffic
    }
    watermark = deliver_at;
    const uint64_t inc = st->to_incarnation;
    const uint32_t dst_shard = ShardOf(to);
    WireMessage payload = std::move(st->msg);
    auto deliver = [this, inc, m = std::move(payload)] { hosts_.Deliver(inc, m); };
    if (dst_shard == src_shard) {
      shard.queue().ScheduleAt(deliver_at, std::move(deliver));
    } else {
      shard.PushCrossShard(dst_shard, deliver_at, std::move(deliver));
    }
  }
  if (v.ack_ok) {
    Transport::SendCallback cb = std::move(st->cb);
    pool.Release(ref);
    shard.queue().ScheduleAt(shard.Now() + v.rtt, [cb = std::move(cb)]() mutable {
      InvokeCallback(std::move(cb), Status::Ok());
    });
    return;
  }
  shard.queue().ScheduleAt(shard.Now() + tcp_.RetransmitBackoff(v.rtt, st->attempt),
                           [this, src_shard, ref] { Attempt(src_shard, ref); });
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
