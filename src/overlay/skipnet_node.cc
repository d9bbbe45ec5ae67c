#include "overlay/skipnet_node.h"

#include <utility>

#include "common/logging.h"
#include "common/serialize.h"

namespace fuse {
namespace {

constexpr int kMaxRoutedHops = 64;
constexpr int kForwardRetries = 2;

}  // namespace

void WriteNodeRef(Writer& w, const NodeRef& ref) {
  w.PutString(ref.name);
  w.PutU64(ref.host.value);
}

NodeRef ReadNodeRef(Reader& r) {
  NodeRef ref;
  ref.name = r.GetString();
  ref.host = HostId(r.GetU64());
  return ref;
}

SkipNetNode::SkipNetNode(Transport* transport, RpcNode* rpc, std::string name, NumericId numeric,
                         SkipNetConfig config)
    : transport_(transport),
      rpc_(rpc),
      self_{std::move(name), transport->local_host()},
      numeric_(numeric),
      config_(config),
      table_(self_.name, config.table),
      pings_(transport, config.ping_period, config.ping_timeout, config.coalesce_pings),
      join_timer_(transport->env()),
      repair_timer_(transport->env()),
      leaf_exchange_timer_(transport->env()) {
  transport_->RegisterHandler(msgtype::kOverlayRouted,
                              [this](const WireMessage& m) { HandleRouted(m); });
  transport_->RegisterHandler(msgtype::kOverlayJoinSearchReply,
                              [this](const WireMessage& m) { HandleJoinSearchReply(m); });
  transport_->RegisterHandler(msgtype::kOverlayNeighborNotify,
                              [this](const WireMessage& m) { HandleNeighborNotify(m); });
  rpc_->Handle(msgtype::kOverlayNeighborQuery,
               [this](HostId caller, const std::vector<uint8_t>& req) {
                 return HandleNeighborQuery(caller, req);
               });
  pings_.SetPayloadProvider([this](HostId neighbor, Writer& w) {
    if (client_payload_provider_) {
      client_payload_provider_(neighbor, w);
    }
  });
  pings_.SetFailureHandler([this](HostId neighbor) { OnNeighborFailed(neighbor); });
}

SkipNetNode::~SkipNetNode() { Shutdown(); }

void SkipNetNode::Shutdown() {
  if (shutdown_) {
    return;
  }
  shutdown_ = true;
  pings_.Stop();
  // A retired node is parked, not destroyed: disarm its timers now.
  join_timer_.Cancel();
  repair_timer_.Cancel();
  leaf_exchange_timer_.Cancel();
}

void SkipNetNode::JoinAsFirst() {
  joined_ = true;
  if (config_.start_maintenance_on_join) {
    StartMaintenance();
  }
}

void SkipNetNode::Join(HostId bootstrap, JoinCallback cb) {
  FUSE_CHECK(!joined_) << "already joined";
  join_cb_ = std::move(cb);
  join_bootstrap_ = bootstrap;
  join_attempts_left_ = config_.join_attempts;
  StartJoinAttempt();
}

void SkipNetNode::StartJoinAttempt() {
  if (shutdown_) {
    return;
  }
  if (join_attempts_left_ <= 0) {
    FinishJoin(Status::Timeout("join: no response"));
    return;
  }
  join_attempts_left_--;

  Writer w;
  WriteNodeRef(w, self_);
  RoutedEnvelope env;
  env.dest = self_.name;
  env.tag = kJoinSearchTag;
  env.origin = self_;
  env.hops = 0;
  env.category = static_cast<uint8_t>(MsgCategory::kOverlayJoin);
  env.payload = w.Take();

  WireMessage msg;
  msg.to = join_bootstrap_;
  msg.type = msgtype::kOverlayRouted;
  msg.category = MsgCategory::kOverlayJoin;
  msg.payload = EncodeEnvelope(env);
  transport_->Send(std::move(msg), nullptr);

  join_timer_.Start(config_.join_timeout, [this] { StartJoinAttempt(); });
}

void SkipNetNode::FinishJoin(const Status& status) {
  join_timer_.Cancel();
  if (status.ok()) {
    joined_ = true;
    if (config_.start_maintenance_on_join) {
      StartMaintenance();
    }
  }
  if (join_cb_) {
    auto cb = std::move(join_cb_);
    join_cb_ = nullptr;
    cb(status);
  }
}

void SkipNetNode::StartMaintenance() {
  if (shutdown_) {
    return;
  }
  pings_.Start();
  RefreshPingSet();
  if (!leaf_exchange_timer_.pending()) {
    ScheduleLeafExchange();
  }
}

void SkipNetNode::RunLeafExchangeOnce() {
  if (shutdown_) {
    return;
  }
  if (!table_.leaf_cw().empty()) {
    QueryAndMergeNeighborhood(table_.leaf_cw().back());
  }
  if (!table_.leaf_ccw().empty()) {
    QueryAndMergeNeighborhood(table_.leaf_ccw().back());
  }
}

void SkipNetNode::ScheduleLeafExchange() {
  const Duration jitter = Duration::Micros(
      transport_->env().rng().UniformInt(0, config_.leaf_exchange_period.ToMicros() / 4));
  leaf_exchange_timer_.Start(config_.leaf_exchange_period + jitter, [this] {
    if (shutdown_) {
      return;
    }
    // Alternate sides; pick the farthest kept leaf (it knows the part of
    // the ring we see least of).
    const auto& side = exchange_cw_next_ ? table_.leaf_cw() : table_.leaf_ccw();
    exchange_cw_next_ = !exchange_cw_next_;
    if (!side.empty()) {
      QueryAndMergeNeighborhood(side.back());
    }
    ScheduleLeafExchange();
  });
}

void SkipNetNode::SetRoutedHandler(uint16_t client_tag, RoutedHandler handler) {
  FUSE_CHECK(client_tag != kJoinSearchTag) << "tag 0 is reserved";
  routed_handlers_[client_tag] = std::move(handler);
}

void SkipNetNode::SetPingPayloadProvider(PingManager::PayloadProvider p) {
  client_payload_provider_ = std::move(p);
}

void SkipNetNode::SetPingPayloadObserver(PingManager::PayloadObserver o) {
  pings_.SetPayloadObserver(std::move(o));
}

void SkipNetNode::SetNeighborFailureHandler(NeighborFailureHandler h) {
  client_failure_handler_ = std::move(h);
}

void SkipNetNode::ReportNeighborFailure(HostId host) { OnNeighborFailed(host); }

// ---------------------------------------------------------------------------
// Routed messages.
// ---------------------------------------------------------------------------

std::vector<uint8_t> SkipNetNode::EncodeEnvelope(const RoutedEnvelope& env) {
  Writer w;
  w.PutString(env.dest);
  w.PutU16(env.tag);
  WriteNodeRef(w, env.origin);
  w.PutU16(env.hops);
  w.PutU8(env.category);
  w.PutU32(static_cast<uint32_t>(env.payload.size()));
  w.PutBytes(env.payload.data(), env.payload.size());
  return w.Take();
}

std::optional<SkipNetNode::RoutedEnvelope> SkipNetNode::DecodeEnvelope(const WireMessage& msg) {
  Reader r(msg.payload);
  RoutedEnvelope env;
  env.dest = r.GetString();
  env.tag = r.GetU16();
  env.origin = ReadNodeRef(r);
  env.hops = r.GetU16();
  env.category = r.GetU8();
  const uint32_t len = r.GetU32();
  env.payload.resize(len);
  r.GetBytes(env.payload.data(), len);
  if (!r.ok()) {
    return std::nullopt;
  }
  return env;
}

void SkipNetNode::RouteByName(const std::string& dest_name, uint16_t client_tag,
                              std::vector<uint8_t> payload, MsgCategory category) {
  RoutedEnvelope env;
  env.dest = dest_name;
  env.tag = client_tag;
  env.origin = self_;
  env.hops = 0;
  env.category = static_cast<uint8_t>(category);
  env.payload = std::move(payload);
  ProcessEnvelope(std::move(env), HostId());
}

void SkipNetNode::HandleRouted(const WireMessage& msg) {
  auto env = DecodeEnvelope(msg);
  if (!env) {
    return;
  }
  ProcessEnvelope(std::move(*env), msg.from);
}

void SkipNetNode::ProcessEnvelope(RoutedEnvelope env, HostId prev_hop) {
  if (env.hops >= kMaxRoutedHops) {
    FUSE_LOG(Warning) << self_.name << ": dropping routed message after " << env.hops << " hops";
    return;
  }
  const bool at_dest = env.dest == self_.name;
  auto next = table_.NextHopTowards(env.dest);

  if (env.tag == kJoinSearchTag) {
    // Incarnation-aware join routing: a next hop on the joiner's own host
    // must be a stale entry for a dead incarnation — the joiner itself is
    // not in the overlay yet, so forwarding there would bounce the search
    // off the joiner's self-host guard until ping timeouts evict the entry.
    // The join search is proof the host came back, so evict the stale entry
    // now (no quarantine: the replacement is demonstrably alive) and route
    // around it.
    if (next.has_value() && next->host == env.origin.host &&
        env.origin.host != self_.host) {
      table_.RemoveHost(env.origin.host);
      FixLevelZeroFromLeafSet();
      RefreshPingSet();
      ScheduleRepair();
      next = table_.NextHopTowards(env.dest);
    }
    // Internal: deliver at the terminal node (the owner of the joiner's
    // name position), no client upcall.
    if (!next.has_value() || at_dest) {
      RoutedUpcall upcall;
      upcall.dest = env.dest;
      upcall.origin = env.origin;
      upcall.prev_hop = prev_hop;
      upcall.at_dest = at_dest;
      upcall.hop_index = env.hops;
      upcall.payload = std::move(env.payload);
      HandleJoinSearch(upcall);
      return;
    }
  } else {
    const auto it = routed_handlers_.find(env.tag);
    if (it != routed_handlers_.end()) {
      RoutedUpcall upcall;
      upcall.dest = env.dest;
      upcall.origin = env.origin;
      upcall.prev_hop = prev_hop;
      upcall.next_hop = next.has_value() ? *next : NodeRef{};
      upcall.at_dest = at_dest;
      upcall.hop_index = env.hops;
      upcall.payload = std::move(env.payload);
      const bool consumed = it->second(upcall);
      env.payload = std::move(upcall.payload);
      if (consumed) {
        return;
      }
    }
  }

  if (next.has_value() && !at_dest) {
    env.hops++;
    ForwardEnvelope(std::move(env), *next, kForwardRetries);
  }
}

void SkipNetNode::ForwardEnvelope(RoutedEnvelope env, const NodeRef& next, int retries_left) {
  WireMessage msg;
  msg.to = next.host;
  msg.type = msgtype::kOverlayRouted;
  msg.category = static_cast<MsgCategory>(env.category);
  msg.payload = EncodeEnvelope(env);
  const HostId next_host = next.host;
  transport_->Send(std::move(msg),
                   [this, env = std::move(env), next_host, retries_left](const Status& s) mutable {
                     if (s.ok() || shutdown_) {
                       return;
                     }
                     // Next hop unreachable: treat as a failed neighbor and
                     // re-route around it if we still can.
                     OnNeighborFailed(next_host);
                     if (retries_left <= 0) {
                       return;
                     }
                     const auto alt = table_.NextHopTowards(env.dest);
                     if (alt.has_value()) {
                       ForwardEnvelope(std::move(env), *alt, retries_left - 1);
                     }
                   });
}

// ---------------------------------------------------------------------------
// Join protocol.
// ---------------------------------------------------------------------------

void SkipNetNode::HandleJoinSearch(const RoutedUpcall& upcall) {
  Reader r(upcall.payload.data(), upcall.payload.size());
  const NodeRef joiner = ReadNodeRef(r);
  if (!r.ok() || !joiner.valid() || joiner.host == self_.host) {
    return;
  }
  ClearQuarantine(joiner.host);
  // Reply with ourself and everything we know near the joiner's position:
  // our leaf sets and ring pointers are the joiner's level-0 seed candidates.
  Writer w;
  WriteNodeRef(w, self_);
  const auto neighbors = table_.DistinctNeighbors();
  w.PutU32(static_cast<uint32_t>(neighbors.size()));
  for (const auto& ref : neighbors) {
    WriteNodeRef(w, ref);
  }
  WireMessage msg;
  msg.to = joiner.host;
  msg.type = msgtype::kOverlayJoinSearchReply;
  msg.category = MsgCategory::kOverlayJoin;
  msg.payload = w.Take();
  transport_->Send(std::move(msg), nullptr);

  // The owner also learns about the joiner right away.
  TryAdopt(0, joiner, NumericId());
  RefreshPingSet();
}

void SkipNetNode::HandleJoinSearchReply(const WireMessage& msg) {
  if (joined_ || !join_cb_) {
    return;  // stale reply from an earlier attempt
  }
  Reader r(msg.payload);
  const NodeRef owner = ReadNodeRef(r);
  const uint32_t n = r.GetU32();
  std::vector<NodeRef> candidates;
  candidates.reserve(n + 1);
  candidates.push_back(owner);
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    candidates.push_back(ReadNodeRef(r));
  }
  if (!r.ok()) {
    return;
  }
  join_timer_.Cancel();

  for (const auto& c : candidates) {
    if (c.valid() && c.host != self_.host && !IsQuarantined(c.host)) {
      table_.OfferLeaf(c);
    }
  }
  FixLevelZeroFromLeafSet();
  // Tell every candidate about us so their pointers and leaf sets splice us
  // in; the adopters forward to displaced nodes, healing the ring.
  for (const auto& c : candidates) {
    if (c.valid() && c.host != self_.host) {
      SendNeighborNotify(c, 0);
    }
  }

  // Climb the numeric rings: find level-h neighbors by walking level-(h-1).
  climb_level_ = 1;
  climb_cw_done_ = false;
  const NodeRef start = table_.level(0).cw;
  if (!start.valid()) {
    FinishJoin(Status::Ok());  // we are alone
    return;
  }
  ClimbLevel(climb_level_, /*clockwise=*/true, start, config_.walk_budget);
}

void SkipNetNode::ClimbNextAfter(int level, bool clockwise) {
  if (clockwise) {
    // Walk the other side of the same level.
    climb_cw_done_ = true;
    const NodeRef start = table_.level(level - 1).ccw;
    if (start.valid()) {
      ClimbLevel(level, /*clockwise=*/false, start, config_.walk_budget);
      return;
    }
  }
  // Both sides done (or ccw impossible): proceed to the next level if we
  // found at least one member of the current ring; otherwise higher rings
  // are empty too and the join is complete.
  const bool found_any = table_.level(level).cw.valid() || table_.level(level).ccw.valid();
  if (!found_any || level + 1 >= table_.params().max_levels) {
    FinishJoin(Status::Ok());
    return;
  }
  climb_level_ = level + 1;
  climb_cw_done_ = false;
  const NodeRef start = table_.level(level).cw;
  if (!start.valid()) {
    FinishJoin(Status::Ok());
    return;
  }
  ClimbLevel(climb_level_, /*clockwise=*/true, start, config_.walk_budget);
}

void SkipNetNode::ClimbLevel(int level, bool clockwise, NodeRef walk_at, int steps_left) {
  if (shutdown_ || joined_) {
    return;
  }
  if (!walk_at.valid() || walk_at.host == self_.host || steps_left <= 0) {
    ClimbNextAfter(level, clockwise);
    return;
  }
  // Ask the walked node for its numeric id and its level-(h-1) ring pointer.
  Writer w;
  w.PutU8(static_cast<uint8_t>(level - 1));
  w.PutU8(clockwise ? 1 : 0);
  w.PutU8(0);  // no leaf set wanted
  rpc_->Call(walk_at.host, msgtype::kOverlayNeighborQuery, w.Take(), config_.query_timeout,
             [this, level, clockwise, walk_at, steps_left](const Status& s,
                                                           const std::vector<uint8_t>& reply) {
               if (shutdown_ || joined_) {
                 return;
               }
               if (!s.ok()) {
                 ClimbNextAfter(level, clockwise);
                 return;
               }
               Reader r(reply);
               const NumericId their_numeric(r.GetU64());
               const uint8_t has_ptr = r.GetU8();
               NodeRef ptr;
               if (has_ptr) {
                 ptr = ReadNodeRef(r);
               }
               if (!r.ok()) {
                 ClimbNextAfter(level, clockwise);
                 return;
               }
               const int bits = table_.params().bits_per_digit();
               if (numeric_.SharesPrefix(their_numeric, level, bits)) {
                 // Found the nearest ring member in this direction.
                 if (!IsQuarantined(walk_at.host)) {
                   table_.SetLevel(level, clockwise, walk_at);
                   SendNeighborNotify(walk_at, level);
                 }
                 ClimbNextAfter(level, clockwise);
                 return;
               }
               ClimbLevel(level, clockwise, ptr, steps_left - 1);
             },
             MsgCategory::kOverlayJoin);
}

// ---------------------------------------------------------------------------
// Neighbor pointer maintenance.
// ---------------------------------------------------------------------------

void SkipNetNode::SendNeighborNotify(const NodeRef& to, int level) {
  Writer w;
  w.PutU8(static_cast<uint8_t>(level));
  WriteNodeRef(w, self_);
  w.PutU64(numeric_.bits());
  WireMessage msg;
  msg.to = to.host;
  msg.type = msgtype::kOverlayNeighborNotify;
  msg.category = MsgCategory::kOverlayJoin;
  msg.payload = w.Take();
  transport_->Send(std::move(msg), nullptr);
}

bool SkipNetNode::TryAdopt(int level, const NodeRef& candidate, const NumericId& cand_numeric) {
  if (!candidate.valid() || candidate.host == self_.host || candidate.name == self_.name) {
    return false;
  }
  if (IsQuarantined(candidate.host)) {
    return false;
  }
  bool changed = false;
  if (level == 0) {
    changed = table_.OfferLeaf(candidate);
    FixLevelZeroFromLeafSet();
  } else {
    const int bits = table_.params().bits_per_digit();
    if (!numeric_.SharesPrefix(cand_numeric, level, bits)) {
      return false;  // not actually a member of our level-h ring
    }
    auto consider = [&](bool cw) {
      const NodeRef& current = cw ? table_.level(level).cw : table_.level(level).ccw;
      const bool nearer = !current.valid() ||
                          (cw ? CwStrictlyBetween(candidate.name, self_.name, current.name)
                              : CwStrictlyBetween(candidate.name, current.name, self_.name));
      if (nearer) {
        const NodeRef displaced = current;
        table_.SetLevel(level, cw, candidate);
        changed = true;
        // The displaced node's opposite pointer likely needs to become the
        // candidate; forward the notification so the ring heals.
        if (displaced.valid() && displaced.host != candidate.host) {
          Writer w;
          w.PutU8(static_cast<uint8_t>(level));
          WriteNodeRef(w, candidate);
          w.PutU64(cand_numeric.bits());
          WireMessage msg;
          msg.to = displaced.host;
          msg.type = msgtype::kOverlayNeighborNotify;
          msg.category = MsgCategory::kOverlayJoin;
          msg.payload = w.Take();
          transport_->Send(std::move(msg), nullptr);
        }
      }
    };
    consider(true);
    consider(false);
  }
  if (changed) {
    RefreshPingSet();
  }
  return changed;
}

void SkipNetNode::HandleNeighborNotify(const WireMessage& msg) {
  ClearQuarantine(msg.from);
  Reader r(msg.payload);
  const int level = r.GetU8();
  const NodeRef candidate = ReadNodeRef(r);
  const NumericId cand_numeric(r.GetU64());
  if (!r.ok() || level >= table_.params().max_levels) {
    return;
  }
  TryAdopt(level, candidate, cand_numeric);
}

std::vector<uint8_t> SkipNetNode::HandleNeighborQuery(HostId caller,
                                                      const std::vector<uint8_t>& req) {
  (void)caller;
  Reader r(req.data(), req.size());
  const int level = r.GetU8();
  const bool clockwise = r.GetU8() != 0;
  const bool want_leaf = r.GetU8() != 0;
  Writer w;
  w.PutU64(numeric_.bits());
  if (!r.ok() || level >= table_.params().max_levels) {
    w.PutU8(0);
    w.PutU32(0);
    return w.Take();
  }
  const NodeRef& ptr = clockwise ? table_.level(level).cw : table_.level(level).ccw;
  w.PutU8(ptr.valid() ? 1 : 0);
  if (ptr.valid()) {
    WriteNodeRef(w, ptr);
  }
  if (want_leaf) {
    const auto neighbors = table_.DistinctNeighbors();
    w.PutU32(static_cast<uint32_t>(neighbors.size()));
    for (const auto& n : neighbors) {
      WriteNodeRef(w, n);
    }
  } else {
    w.PutU32(0);
  }
  return w.Take();
}

// ---------------------------------------------------------------------------
// Failure handling and repair.
// ---------------------------------------------------------------------------

bool SkipNetNode::IsQuarantined(HostId host) const {
  const auto it = recently_failed_.find(host);
  if (it == recently_failed_.end()) {
    return false;
  }
  // Quarantine for two ping periods: long enough for the rest of the overlay
  // to also notice the failure and stop advertising the dead node.
  return transport_->env().Now() - it->second < config_.ping_period * int64_t{2};
}

void SkipNetNode::OnNeighborFailed(HostId host) {
  if (shutdown_ || host == self_.host) {
    return;
  }
  recently_failed_[host] = transport_->env().Now();
  if (!table_.HasNeighbor(host)) {
    return;  // already removed (duplicate detection)
  }
  // Tell the client (FUSE) first: it needs to know which monitored links
  // died; its own per-group state references this host.
  if (client_failure_handler_) {
    client_failure_handler_(host);
  }
  table_.RemoveHost(host);
  FixLevelZeroFromLeafSet();
  RefreshPingSet();
  ScheduleRepair();
}

void SkipNetNode::ScheduleRepair() {
  if (repair_timer_.pending() || shutdown_) {
    return;
  }
  const Duration jitter =
      Duration::Micros(transport_->env().rng().UniformInt(0, config_.repair_delay.ToMicros()));
  repair_timer_.Start(config_.repair_delay + jitter, [this] { RunRepair(); });
}

void SkipNetNode::RunRepair() {
  if (shutdown_ || !joined_) {
    return;
  }
  RefillLeafSet();
  // Re-walk any ring level that lost a pointer. Each level walk is an
  // independent async chain; budget-capped like the join walks.
  for (int h = 1; h < table_.params().max_levels; ++h) {
    const bool lower_ok = table_.level(h - 1).cw.valid() || table_.level(h - 1).ccw.valid();
    if (!lower_ok) {
      break;  // no ring members below; higher levels are empty too
    }
    for (const bool cw : {true, false}) {
      const NodeRef& cur = cw ? table_.level(h).cw : table_.level(h).ccw;
      if (cur.valid()) {
        continue;
      }
      const NodeRef start = cw ? table_.level(h - 1).cw : table_.level(h - 1).ccw;
      if (start.valid()) {
        RepairWalk(h, cw, start, config_.walk_budget);
      }
    }
  }
}

void SkipNetNode::RepairWalk(int level, bool clockwise, NodeRef walk_at, int steps_left) {
  if (shutdown_ || !walk_at.valid() || walk_at.host == self_.host || steps_left <= 0) {
    return;
  }
  Writer w;
  w.PutU8(static_cast<uint8_t>(level - 1));
  w.PutU8(clockwise ? 1 : 0);
  w.PutU8(0);
  rpc_->Call(walk_at.host, msgtype::kOverlayNeighborQuery, w.Take(), config_.query_timeout,
             [this, level, clockwise, walk_at, steps_left](const Status& s,
                                                           const std::vector<uint8_t>& reply) {
               if (shutdown_ || !s.ok()) {
                 return;
               }
               Reader r(reply);
               const NumericId their_numeric(r.GetU64());
               const uint8_t has_ptr = r.GetU8();
               NodeRef ptr;
               if (has_ptr) {
                 ptr = ReadNodeRef(r);
               }
               if (!r.ok()) {
                 return;
               }
               const int bits = table_.params().bits_per_digit();
               if (numeric_.SharesPrefix(their_numeric, level, bits)) {
                 if (!IsQuarantined(walk_at.host)) {
                   table_.SetLevel(level, clockwise, walk_at);
                   SendNeighborNotify(walk_at, level);
                   RefreshPingSet();
                 }
                 return;
               }
               RepairWalk(level, clockwise, ptr, steps_left - 1);
             },
             MsgCategory::kOverlayJoin);
}

void SkipNetNode::RefillLeafSet() {
  const bool cw_low =
      table_.leaf_cw().size() < static_cast<size_t>(table_.params().leaf_set_half);
  const bool ccw_low =
      table_.leaf_ccw().size() < static_cast<size_t>(table_.params().leaf_set_half);
  if (!cw_low && !ccw_low) {
    return;
  }
  // Ask the farthest surviving leaf (it is nearest to the hole) for its
  // neighborhood and merge the answer.
  const std::vector<NodeRef>& side = cw_low ? table_.leaf_cw() : table_.leaf_ccw();
  NodeRef target;
  if (!side.empty()) {
    target = side.back();
  } else if (!table_.leaf_cw().empty()) {
    target = table_.leaf_cw().back();
  } else if (!table_.leaf_ccw().empty()) {
    target = table_.leaf_ccw().back();
  } else {
    return;  // totally isolated; nothing we can do locally
  }
  QueryAndMergeNeighborhood(target);
}

void SkipNetNode::QueryAndMergeNeighborhood(const NodeRef& target) {
  Writer w;
  w.PutU8(0);
  w.PutU8(1);
  w.PutU8(1);  // want leaf set
  rpc_->Call(target.host, msgtype::kOverlayNeighborQuery, w.Take(), config_.query_timeout,
             [this](const Status& s, const std::vector<uint8_t>& reply) {
               if (shutdown_ || !s.ok()) {
                 return;
               }
               Reader r(reply);
               r.GetU64();  // numeric id (unused)
               const uint8_t has_ptr = r.GetU8();
               if (has_ptr) {
                 ReadNodeRef(r);
               }
               const uint32_t n = r.GetU32();
               std::vector<NodeRef> added;
               for (uint32_t i = 0; i < n && r.ok(); ++i) {
                 const NodeRef ref = ReadNodeRef(r);
                 if (ref.valid() && ref.host != self_.host && !IsQuarantined(ref.host) &&
                     table_.OfferLeaf(ref)) {
                   added.push_back(ref);
                 }
               }
               if (!added.empty()) {
                 FixLevelZeroFromLeafSet();
                 // Only the newly learned nodes need to hear about us.
                 for (const auto& ref : added) {
                   SendNeighborNotify(ref, 0);
                 }
                 RefreshPingSet();
               }
             },
             MsgCategory::kOverlayJoin);
}

void SkipNetNode::FixLevelZeroFromLeafSet() {
  const NodeRef cw = table_.leaf_cw().empty() ? NodeRef{} : table_.leaf_cw().front();
  const NodeRef ccw = table_.leaf_ccw().empty() ? NodeRef{} : table_.leaf_ccw().front();
  table_.SetLevel(0, true, cw);
  table_.SetLevel(0, false, ccw);
}

void SkipNetNode::RefreshPingSet() {
  if (pings_.running()) {
    pings_.UpdateNeighbors(table_.DistinctNeighborHosts());
  }
}

}  // namespace fuse
