#include "fuse/fuse_node.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "common/sha1.h"

namespace fuse {
namespace {

// Wire encodings. All FUSE direct messages are small fixed structures.

std::vector<uint8_t> EncodeIdOnly(const FuseId& id) {
  Writer w;
  WriteFuseId(w, id);
  return w.Take();
}

std::vector<uint8_t> EncodeIdSeq(const FuseId& id, uint32_t seq) {
  Writer w;
  WriteFuseId(w, id);
  w.PutU32(seq);
  return w.Take();
}

}  // namespace

FuseNode::FuseNode(Transport* transport, SkipNetNode* overlay, FuseParams params)
    : transport_(transport), overlay_(overlay), params_(params) {
  transport_->RegisterHandler(msgtype::kFuseGroupCreateRequest,
                              [this](const WireMessage& m) { OnCreateRequest(m); });
  transport_->RegisterHandler(msgtype::kFuseGroupCreateReply,
                              [this](const WireMessage& m) { OnCreateReply(m); });
  transport_->RegisterHandler(msgtype::kFuseSoftNotification,
                              [this](const WireMessage& m) { OnSoftNotification(m); });
  transport_->RegisterHandler(msgtype::kFuseHardNotification,
                              [this](const WireMessage& m) { OnHardNotification(m); });
  transport_->RegisterHandler(msgtype::kFuseNeedRepair,
                              [this](const WireMessage& m) { OnNeedRepair(m); });
  transport_->RegisterHandler(msgtype::kFuseGroupRepairRequest,
                              [this](const WireMessage& m) { OnRepairRequest(m); });
  transport_->RegisterHandler(msgtype::kFuseGroupRepairReply,
                              [this](const WireMessage& m) { OnRepairReply(m); });
  transport_->RegisterHandler(msgtype::kFuseReconcileRequest,
                              [this](const WireMessage& m) { OnReconcileRequest(m); });
  transport_->RegisterHandler(msgtype::kFuseReconcileReply,
                              [this](const WireMessage& m) { OnReconcileReply(m); });

  overlay_->SetRoutedHandler(
      kRoutedTag, [this](SkipNetNode::RoutedUpcall& u) { return OnInstallUpcall(u); });
  overlay_->SetPingPayloadProvider([this](HostId n, Writer& w) { AppendPingPayload(n, w); });
  overlay_->SetPingPayloadObserver(
      [this](HostId n, const uint8_t* data, size_t len) { OnPingPayload(n, data, len); });
  overlay_->SetNeighborFailureHandler([this](HostId n) { OnOverlayNeighborFailed(n); });
}

FuseNode::~FuseNode() { Shutdown(); }

void FuseNode::Shutdown() {
  if (shutdown_) {
    return;
  }
  shutdown_ = true;
  // Detach from the overlay so its pings stop calling into us.
  overlay_->SetPingPayloadProvider(nullptr);
  overlay_->SetPingPayloadObserver(nullptr);
  overlay_->SetNeighborFailureHandler(nullptr);
  peer_sweep_.Cancel();
  // Every timer is an RAII handle owned by the state being dropped here.
  group_index_ = Flat128Map<GroupRef>();
  group_pool_ = Pool<GroupState>();
  creating_.clear();
  links_by_peer_.clear();
}

FuseNode::GroupState* FuseNode::Find(FuseId id) {
  const GroupRef* ref = group_index_.Find(id.hi, id.lo);
  return ref == nullptr ? nullptr : group_pool_.Get(*ref);
}

const FuseNode::GroupState* FuseNode::Find(FuseId id) const {
  return const_cast<FuseNode*>(this)->Find(id);
}

FuseNode::GroupState& FuseNode::Emplace(GroupState&& g) {
  const FuseId id = g.id;
  const GroupRef ref = group_pool_.Alloc();  // invalidates outstanding GroupState*
  *group_pool_.Get(ref) = std::move(g);
  group_index_.FindOrInsert(id.hi, id.lo) = ref;
  return *group_pool_.Get(ref);
}

FuseNode::LinkEntry* FuseNode::FindLink(FuseId id, HostId peer) {
  const auto it = links_by_peer_.find(peer);
  return it == links_by_peer_.end() ? nullptr : it->second.links.Find(id.hi, id.lo);
}

FuseNode::RepairAux& FuseNode::Aux(GroupState& g) {
  if (g.aux == nullptr) {
    g.aux = std::make_unique<RepairAux>();
  }
  return *g.aux;
}

void FuseNode::MaybeTrimAux(GroupState& g) {
  if (g.aux == nullptr) {
    return;
  }
  const RepairAux& a = *g.aux;
  // Roots that have repaired keep their aux: repair_backoff/last_repair_time
  // must survive between rounds or the exponential backoff (paper 6.5) would
  // reset every time the tree heals.
  if (a.repair == nullptr && !a.rerepair_requested && a.install_pending.empty() &&
      !a.install_timer.pending() && !a.scheduled_repair.pending() &&
      !a.member_repair_timer.pending() && a.last_repair_time == TimePoint()) {
    g.aux.reset();
  }
}

std::string FuseNode::DebugGroupState(FuseId id) const {
  const GroupState* g = Find(id);
  if (g == nullptr) {
    return "";
  }
  std::string s = g->is_root ? "root" : g->is_member ? "member" : "delegate";
  s += " seq=" + std::to_string(g->seq);
  s += " links=[";
  bool first = true;
  for (const HostId peer : g->links) {
    if (!first) {
      s += " ";
    }
    first = false;
    s += std::to_string(peer.value);
  }
  s += "]";
  if (g->aux != nullptr) {
    if (!g->aux->install_pending.empty()) {
      s += " install_pending=" + std::to_string(g->aux->install_pending.size());
    }
    if (g->aux->repair != nullptr) {
      s += " repairing";
    }
    if (g->aux->member_repair_timer.pending()) {
      s += " member_repair_armed";
    }
  }
  return s;
}

size_t FuseNode::ApproxGroupBytes() const {
  // Deliberately an estimate from container sizes (not an allocator hook):
  // deterministic for a deterministic run, which lets the bench gauges sit
  // in the perf baseline.
  size_t total = 0;
  total += group_index_.size() * (2 * sizeof(uint64_t) + sizeof(GroupRef) + 1);
  group_index_.ForEach([&](uint64_t, uint64_t, const GroupRef& ref) {
    const GroupState* g = group_pool_.Get(ref);
    if (g == nullptr) {
      return;
    }
    total += sizeof(GroupState);
    total += g->links.capacity() * sizeof(HostId);
    total += g->members.capacity() * sizeof(NodeRef);
    for (const auto& m : g->members) {
      total += m.name.capacity();
    }
    total += g->root.name.capacity();
    if (g->aux != nullptr) {
      total += sizeof(RepairAux);
    }
  });
  for (const auto& [peer, pl] : links_by_peer_) {
    // Every slot of the open-addressed table: state byte, 128-bit key, entry.
    total += sizeof(PeerLinks) + pl.links.capacity() * (1 + sizeof(FuseId) + sizeof(LinkEntry));
  }
  return total;
}

size_t FuseNode::CountArmedGroupTimers() const {
  size_t n = 0;
  group_index_.ForEach([&](uint64_t, uint64_t, const GroupRef& ref) {
    const GroupState* g = group_pool_.Get(ref);
    if (g == nullptr) {
      return;
    }
    if (g->backstop.pending()) {
      ++n;
    }
    if (g->aux != nullptr) {
      const RepairAux& a = *g->aux;
      if (a.member_repair_timer.pending()) {
        ++n;
      }
      if (a.install_timer.pending()) {
        ++n;
      }
      if (a.scheduled_repair.pending()) {
        ++n;
      }
      if (a.repair != nullptr && a.repair->timer.pending()) {
        ++n;
      }
    }
  });
  if (peer_sweep_.pending()) {
    ++n;
  }
  return n;
}

bool FuseNode::DebugVerifyLinkIndex() const {
  bool ok = true;
  // Group to peer: each listed link is in that peer's table, once.
  size_t listed = 0;
  group_index_.ForEach([&](uint64_t hi, uint64_t lo, const GroupRef& ref) {
    const GroupState* g = group_pool_.Get(ref);
    if (g == nullptr) {
      ok = false;
      return;
    }
    for (const HostId peer : g->links) {
      ++listed;
      const auto it = links_by_peer_.find(peer);
      ok = ok && it != links_by_peer_.end() && it->second.links.Find(hi, lo) != nullptr;
    }
  });
  ok = ok && listed == NumMonitoredLinks();
  // Peer to group: each entry belongs to a live group that lists the peer,
  // and the digest is the XOR of the entries' terms.
  for (const auto& [peer, pl] : links_by_peer_) {
    Sha1Digest expect{};
    pl.links.ForEach([&](uint64_t hi, uint64_t lo, const LinkEntry&) {
      const FuseId id{hi, lo};
      XorInto(expect, IdTerm(id).get());
      const GroupState* g = Find(id);
      ok = ok && g != nullptr && std::find(g->links.begin(), g->links.end(), peer) != g->links.end();
    });
    ok = ok && !pl.links.empty() && expect == pl.digest;
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------------

void FuseNode::CreateGroup(std::vector<NodeRef> members, CreateCallback cb) {
  Environment& env = transport_->env();
  const FuseId id = FuseId::Generate(env.rng());

  // The creator is implicitly the root; drop it from the member list if the
  // caller included it.
  std::vector<NodeRef> others;
  for (auto& m : members) {
    if (m.host != transport_->local_host()) {
      others.push_back(std::move(m));
    }
  }

  if (others.empty()) {
    // A one-node group: trivially created; it can only fail explicitly.
    GroupState g;
    g.id = id;
    g.is_root = true;
    Emplace(std::move(g));
    stats_.groups_created++;
    env.Schedule(Duration::Zero(), [cb = std::move(cb), id] { cb(Status::Ok(), id); });
    return;
  }

  CreatePending p;
  p.members = others;
  for (const auto& m : others) {
    p.awaiting_reply.insert(m.name);
  }
  p.cb = std::move(cb);
  p.timer.Bind(env);
  p.timer.Start(params_.create_timeout,
                [this, id] { FinishCreate(id, Status::Timeout("group create")); });
  creating_.emplace(id, std::move(p));

  Writer w;
  WriteFuseId(w, id);
  WriteNodeRef(w, self());
  // One shared buffer for the whole fan-out.
  const PayloadBuf payload = w.Take();
  for (const auto& m : others) {
    WireMessage msg;
    msg.to = m.host;
    msg.type = msgtype::kFuseGroupCreateRequest;
    msg.category = MsgCategory::kFuseCreate;
    msg.payload = payload;
    transport_->Send(std::move(msg), nullptr);
  }
}

void FuseNode::FinishCreate(FuseId id, const Status& status) {
  const auto it = creating_.find(id);
  if (it == creating_.end()) {
    return;
  }
  CreatePending p = std::move(it->second);
  creating_.erase(it);
  p.timer.Cancel();

  if (!status.ok()) {
    // Creation failed: notify everyone who may already have installed state
    // (paper 6.2); late replies find no creating entry and are ignored.
    for (const auto& m : p.members) {
      SendHard(id, m.host);
    }
    if (p.cb) {
      p.cb(status, id);
    }
    return;
  }

  GroupState g;
  g.id = id;
  g.is_root = true;
  g.members = p.members;
  std::set<std::string> install_pending;
  for (const auto& m : p.members) {
    if (!p.installed_early.contains(m.name)) {
      install_pending.insert(m.name);
    }
  }
  GroupState& gs = Emplace(std::move(g));
  const IdTerm term(id);
  for (HostId peer : p.early_links) {
    AddLink(gs, peer, /*seq=*/0, term);
  }
  if (!install_pending.empty()) {
    RepairAux& aux = Aux(gs);
    aux.install_pending = std::move(install_pending);
    aux.install_timer.Bind(transport_->env());
    aux.install_timer.Start(params_.install_timeout, [this, id] { RootScheduleRepair(id); });
  }
  ArmBackstop(gs);
  stats_.groups_created++;
  if (p.cb) {
    p.cb(Status::Ok(), id);
  }
}

void FuseNode::RegisterFailureHandler(FuseId id, FailureHandler handler) {
  GroupState* g = Find(id);
  if (g != nullptr && (g->is_root || g->is_member)) {
    g->handler = std::move(handler);
    return;
  }
  // Unknown (or already failed, or delegate-only) id: the failure handler is
  // invoked immediately (paper 3.1/3.2).
  transport_->env().Schedule(Duration::Zero(), [this, id, handler = std::move(handler)] {
    stats_.notifications_delivered++;
    handler(id);
  });
}

void FuseNode::SignalFailure(FuseId id) {
  GroupState* g = Find(id);
  if (g == nullptr) {
    return;  // already failed: notification already happened or is in flight
  }
  if (g->is_root) {
    RootFailGroup(*g);
    return;
  }
  if (g->is_member) {
    MemberFailGroup(*g);
    return;
  }
  // Delegate-only state: applications on pure delegates hold no group state;
  // clean up silently.
  DropGroup(id, /*deliver_to_app=*/false);
}

// ---------------------------------------------------------------------------
// Create protocol (member side + root replies).
// ---------------------------------------------------------------------------

void FuseNode::OnCreateRequest(const WireMessage& msg) {
  Reader r(msg.payload);
  const FuseId id = ReadFuseId(r);
  const NodeRef root = ReadNodeRef(r);
  if (!r.ok()) {
    return;
  }
  GroupState* existing = Find(id);
  if (existing == nullptr) {
    GroupState g;
    g.id = id;
    g.is_member = true;
    g.root = root;
    GroupState& gs = Emplace(std::move(g));
    ArmBackstop(gs);
    SendInstallChecking(gs);
  } else {
    existing->is_member = true;
    existing->root = root;
  }

  Writer w;
  WriteFuseId(w, id);
  WriteNodeRef(w, self());
  w.PutU8(1);  // accept
  WireMessage reply;
  reply.to = msg.from;
  reply.type = msgtype::kFuseGroupCreateReply;
  reply.category = MsgCategory::kFuseCreate;
  reply.payload = w.Take();
  transport_->Send(std::move(reply), nullptr);
}

void FuseNode::OnCreateReply(const WireMessage& msg) {
  Reader r(msg.payload);
  const FuseId id = ReadFuseId(r);
  const NodeRef member = ReadNodeRef(r);
  const uint8_t accept = r.GetU8();
  if (!r.ok()) {
    return;
  }
  const auto it = creating_.find(id);
  if (it == creating_.end()) {
    return;  // late reply: create already finished or failed
  }
  if (!accept) {
    FinishCreate(id, Status::Failed("member refused"));
    return;
  }
  it->second.awaiting_reply.erase(member.name);
  if (it->second.awaiting_reply.empty()) {
    FinishCreate(id, Status::Ok());
  }
}

void FuseNode::SendInstallChecking(GroupState& g) {
  Writer w;
  WriteFuseId(w, g.id);
  w.PutU32(g.seq);
  WriteNodeRef(w, self());
  overlay_->RouteByName(g.root.name, kRoutedTag, w.Take(), MsgCategory::kFuseInstallChecking);
}

bool FuseNode::OnInstallUpcall(const SkipNetNode::RoutedUpcall& upcall) {
  Reader r(upcall.payload.data(), upcall.payload.size());
  const FuseId id = ReadFuseId(r);
  const uint32_t seq = r.GetU32();
  const NodeRef member = ReadNodeRef(r);
  if (!r.ok()) {
    return false;
  }

  if (!upcall.prev_hop.valid()) {
    // We are the member that originated this InstallChecking: monitor the
    // first hop toward the root.
    GroupState* g = Find(id);
    if (g != nullptr && upcall.next_hop.valid()) {
      AddLink(*g, upcall.next_hop.host, seq, IdTerm(id));
    }
    return false;
  }

  if (upcall.at_dest) {
    // Arrived at the root: record the member's path as installed and monitor
    // the last hop.
    GroupState* g = Find(id);
    if (g != nullptr && g->is_root) {
      if (seq == g->seq && g->aux != nullptr) {
        RepairAux& aux = *g->aux;
        aux.install_pending.erase(member.name);
        if (aux.install_pending.empty()) {
          aux.install_timer.Cancel();
          if (aux.repair == nullptr && aux.rerepair_requested) {
            // The tree looks complete, but a member complained while it was
            // being rebuilt — run another round.
            RootScheduleRepair(id);
          } else if (aux.repair == nullptr) {
            MaybeTrimAux(*g);
          }
        }
      }
      AddLink(*g, upcall.prev_hop, seq, IdTerm(id));
      ArmBackstop(*g);
      return false;
    }
    // Create still in flight: remember the early install.
    const auto it = creating_.find(id);
    if (it != creating_.end()) {
      if (seq == 0) {
        it->second.installed_early.insert(member.name);
        it->second.early_links.push_back(upcall.prev_hop);
      }
      return false;
    }
    // Delivered at a node that is not (and is not becoming) the group's
    // root: the route toward the root's name dead-ended short of it — the
    // root crashed, or its name region is partitioned away — or the root
    // already failed the group (an explicit signal that overtook the
    // install). A checking path that is not anchored at the root must fail
    // loudly (paper 6.5: a message that encounters a node with no knowledge
    // of the group signals a HardNotification), or the member would monitor
    // a dangling path forever. The delegates this install created hold a
    // half path: a SoftNotification back along it tears them down now, not
    // at link_liveness_timeout. It carries the install's seq, so a delegate
    // a newer repair round re-installed ignores it (6.4).
    SendHard(id, member.host);
    SendSoft(upcall.prev_hop, EncodeIdSeq(id, seq));
    return false;
  }

  // Intermediate hop: we become (or refresh) a delegate for this group.
  if (!upcall.next_hop.valid()) {
    // The route stalled here short of the root (broken overlay route with no
    // forward progress possible). Installing the half-built path would leave
    // the member monitoring a chain anchored at nothing — and the two ends
    // would keep each other's link hashes fresh indefinitely, so the member
    // would never hear the group fail. Refuse the path and fail it loudly
    // instead.
    SendHard(id, member.host);
    return false;
  }
  GroupState* g = Find(id);
  if (g == nullptr) {
    GroupState fresh;
    fresh.id = id;
    fresh.seq = seq;
    g = &Emplace(std::move(fresh));
  }
  if (seq < g->seq) {
    return false;  // stale path install
  }
  g->seq = seq;
  const IdTerm term(id);
  AddLink(*g, upcall.prev_hop, seq, term);
  AddLink(*g, upcall.next_hop.host, seq, term);
  return false;
}

// ---------------------------------------------------------------------------
// Liveness: piggybacked hashes, timers, reconciliation.
// ---------------------------------------------------------------------------

const Sha1Digest& FuseNode::IdTerm::get() const {
  if (!term_.has_value()) {
    Sha1 h;
    h.UpdateU64(id_.hi);
    h.UpdateU64(id_.lo);
    term_ = h.Finish();
  }
  return *term_;
}

void FuseNode::XorInto(Sha1Digest& digest, const Sha1Digest& term) {
  for (size_t i = 0; i < digest.size(); ++i) {
    digest[i] ^= term[i];
  }
}

void FuseNode::EraseLinkIndex(FuseId id, HostId peer, const IdTerm& term) {
  const auto it = links_by_peer_.find(peer);
  if (it != links_by_peer_.end()) {
    if (it->second.links.Erase(id.hi, id.lo)) {
      XorInto(it->second.digest, term.get());  // XOR is self-inverse: this removes it
    }
    if (it->second.links.empty()) {
      links_by_peer_.erase(it);
    }
  }
}

void FuseNode::AddLink(GroupState& g, HostId peer, uint32_t seq, const IdTerm& term) {
  if (peer == transport_->local_host() || !peer.valid()) {
    return;
  }
  const TimePoint now = transport_->env().Now();
  const auto [it, fresh_peer] = links_by_peer_.try_emplace(peer);
  PeerLinks& pl = it->second;
  const size_t before = pl.links.size();
  LinkEntry& link = pl.links.FindOrInsert(g.id.hi, g.id.lo);
  if (pl.links.size() != before) {
    g.links.push_back(peer);
    link.installed_at = now;
    XorInto(pl.digest, term.get());
  }
  link.seq = std::max(link.seq, seq);
  // An install or re-install restarts this link's deadline; the peer sweep
  // enforces it. A participant that just gained its first link no longer
  // needs the empty-links backstop.
  link.refreshed_at = now;
  if (fresh_peer) {
    // The new link's deadline is the earliest this peer can have. An install
    // is not a confirmation, so last_refresh stays unset.
    pl.sweep_at = now + params_.link_liveness_timeout;
    ArmPeerSweep();
  }
  if (g.is_root || g.is_member) {
    ArmBackstop(g);
  }
}

void FuseNode::RemoveLink(GroupState& g, HostId peer, const IdTerm& term) {
  const auto it = std::find(g.links.begin(), g.links.end(), peer);
  if (it == g.links.end()) {
    return;
  }
  g.links.erase(it);
  EraseLinkIndex(g.id, peer, term);
  if (g.links.empty() && (g.is_root || g.is_member)) {
    ArmBackstop(g);  // last link gone: fall back to the per-group backstop
  }
}

void FuseNode::ArmBackstop(GroupState& g) {
  if (!g.links.empty()) {
    // Healthy path: the peer sweep covers this group through its links; the
    // per-group timer stays disarmed.
    g.backstop.Cancel();
    return;
  }
  if (!g.backstop.has_callback()) {
    const FuseId id = g.id;
    g.backstop.Bind(transport_->env());
    g.backstop.SetCallback([this, id] {
      GroupState* grp = Find(id);
      if (grp == nullptr) {
        return;
      }
      ArmBackstop(*grp);  // keep the backstop alive while we attempt repair
      if (grp->is_member) {
        MemberInitiateRepair(*grp);
      } else if (grp->is_root) {
        RootScheduleRepair(id);
      }
    });
  }
  g.backstop.Restart(params_.link_liveness_timeout);
}

void FuseNode::ArmPeerSweep() {
  if (shutdown_ || links_by_peer_.empty()) {
    return;
  }
  if (peer_sweep_.pending()) {
    // Already armed at some earlier minimum. Every sweep_at is set to at
    // most (the time it is set) + timeout, so a pending fire is never later
    // than a peer added since; it rescans and rearms. Spurious wakeups cost
    // one O(neighbors) scan.
    return;
  }
  TimePoint earliest = TimePoint::Max();
  for (const auto& [peer, pl] : links_by_peer_) {
    earliest = std::min(earliest, pl.sweep_at);
  }
  const TimePoint now = transport_->env().Now();
  const Duration delay = earliest > now ? earliest - now : Duration::Zero();
  sweep_due_ = std::max(earliest, now);
  peer_sweep_.Bind(transport_->env());
  // Start (not Restart): this also runs from inside the sweep's own fire,
  // where the stored callback is temporarily consumed.
  peer_sweep_.Start(delay, [this] { SweepStalePeers(); });
}

void FuseNode::SweepStalePeers() {
  // A host whose timers run fast (injected clock skew) fires the sweep before
  // sweep_due_. It then acts at the time it was armed for, as an early-firing
  // per-link timer would, instead of re-arming ever closer to it.
  const TimePoint now = std::max(transport_->env().Now(), sweep_due_);
  const Duration timeout = params_.link_liveness_timeout;
  // Snapshot the stale (peer, id) pairs first: HandleLinkDown mutates both
  // the peer table and the group table. Swap-in the pooled scratch so a
  // reentrant activation owns its own buffer.
  std::vector<std::pair<HostId, FuseId>> stale = std::move(sweep_scratch_);
  stale.clear();
  for (auto& [peer, pl] : links_by_peer_) {
    if (pl.sweep_at > now) {
      continue;
    }
    if (now - pl.last_refresh < timeout) {
      // Confirmed recently: every link through the peer lives at least until
      // last_refresh + timeout.
      pl.sweep_at = pl.last_refresh + timeout;
      continue;
    }
    // The peer's confirmation is stale, so each link lives until its own
    // last install plus the timeout.
    TimePoint next = now + timeout;
    const size_t first = stale.size();
    pl.links.ForEach([&, peer = peer](uint64_t hi, uint64_t lo, const LinkEntry& link) {
      if (now - link.refreshed_at >= timeout) {
        stale.emplace_back(peer, FuseId{hi, lo});
      } else {
        next = std::min(next, link.refreshed_at + timeout);
      }
    });
    // Tear this peer's links down in ID order, not probe order.
    std::sort(stale.begin() + static_cast<std::ptrdiff_t>(first), stale.end());
    pl.sweep_at = next;
  }
  for (const auto& [peer, id] : stale) {
    HandleLinkDown(id, peer);
  }
  stale.clear();
  sweep_scratch_ = std::move(stale);
  ArmPeerSweep();
}

void FuseNode::AppendPingPayload(HostId neighbor, Writer& w) {
  const auto it = links_by_peer_.find(neighbor);
  if (it != links_by_peer_.end()) {
    w.PutBytes(it->second.digest.data(), it->second.digest.size());
  }
}

void FuseNode::OnPingPayload(HostId neighbor, const uint8_t* data, size_t len) {
  // Peer entries exist only while at least one link rides on them, so an
  // absent entry means nothing is monitored here.
  const auto it = links_by_peer_.find(neighbor);
  if (it == links_by_peer_.end()) {
    if (len != 0) {
      MaybeReconcile(neighbor);
    }
    return;
  }
  const Sha1Digest& local = it->second.digest;
  if (len == local.size() && std::memcmp(data, local.data(), len) == 0) {
    // Agreement confirms every link through the peer with one stamp; the
    // armed sweep needs no adjustment (it rescans on fire).
    it->second.last_refresh = transport_->env().Now();
    return;
  }
  MaybeReconcile(neighbor);
}

void FuseNode::OnOverlayNeighborFailed(HostId neighbor) {
  const auto it = links_by_peer_.find(neighbor);
  if (it == links_by_peer_.end()) {
    return;
  }
  // Snapshot into the pooled scratch (swap idiom: HandleLinkDown can cascade
  // into another neighbor failure, and each activation must own its
  // snapshot; the innermost one donates the capacity back on return).
  std::vector<FuseId> ids = std::move(fail_scratch_);
  SortedIds(it->second, ids);
  for (const FuseId& id : ids) {
    HandleLinkDown(id, neighbor);
  }
  ids.clear();
  fail_scratch_ = std::move(ids);
}

void FuseNode::HandleLinkDown(FuseId id, HostId peer) {
  GroupState* g = Find(id);
  if (g == nullptr) {
    return;
  }
  uint32_t seq = g->seq;
  if (const LinkEntry* link = FindLink(id, peer); link != nullptr) {
    seq = std::max(seq, link->seq);
  }
  RemoveLink(*g, peer, IdTerm(id));
  SendSoftToTree(*g, peer, seq);
  if (g->is_member) {
    if (params_.attempt_repair) {
      MemberInitiateRepair(*g);
    } else {
      // Ablation: no repair — convert the path failure directly into a group
      // failure.
      SendHard(id, g->root.host);
      DeliverLocalFailure(id);
    }
  } else if (g->is_root) {
    if (params_.attempt_repair) {
      RootScheduleRepair(id);
    } else {
      RootFailGroup(*g);
    }
  } else {
    // Pure delegate: cleaning up the checking state for this group entirely
    // (paper 6.3).
    DropGroup(id, /*deliver_to_app=*/false);
  }
}

void FuseNode::MaybeReconcile(HostId neighbor) {
  Environment& env = transport_->env();
  const TimePoint now = env.Now();
  const auto it = last_reconcile_.find(neighbor);
  if (it != last_reconcile_.end() && now - it->second < params_.reconcile_min_interval) {
    return;
  }
  last_reconcile_[neighbor] = now;
  stats_.reconciles++;
  WireMessage msg;
  msg.to = neighbor;
  msg.type = msgtype::kFuseReconcileRequest;
  msg.category = MsgCategory::kFuseReconcile;
  msg.payload = EncodeLinkList(neighbor);
  transport_->Send(std::move(msg), nullptr);
}

std::vector<uint8_t> FuseNode::EncodeLinkList(HostId neighbor) {
  Writer w;
  const auto it = links_by_peer_.find(neighbor);
  const TimePoint now = transport_->env().Now();
  if (it == links_by_peer_.end()) {
    w.PutU32(0);
    return w.Take();
  }
  const PeerLinks& pl = it->second;
  std::vector<FuseId> ids;
  SortedIds(pl, ids);
  w.PutU32(static_cast<uint32_t>(ids.size()));
  for (const FuseId& id : ids) {
    const LinkEntry& link = *pl.links.Find(id.hi, id.lo);
    WriteFuseId(w, id);
    w.PutU32(link.seq);
    w.PutU64(static_cast<uint64_t>((now - link.installed_at).ToMicros()));
  }
  return w.Take();
}

void FuseNode::SortedIds(const PeerLinks& pl, std::vector<FuseId>& out) {
  out.clear();
  out.reserve(pl.links.size());
  pl.links.ForEach([&out](uint64_t hi, uint64_t lo, const LinkEntry&) { out.push_back({hi, lo}); });
  std::sort(out.begin(), out.end());
}

void FuseNode::ProcessRemoteLinkList(HostId neighbor, Reader& r) {
  const uint32_t n = r.GetU32();
  // The list comes off the wire: sort it here rather than trust its order.
  // No reserve(n): a hostile count must not force a large allocation before
  // the reader runs dry.
  std::vector<FuseId> remote;
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    const FuseId id = ReadFuseId(r);
    r.GetU32();  // seq (informational)
    r.GetU64();  // age
    remote.push_back(id);
  }
  if (!r.ok()) {
    return;
  }
  std::sort(remote.begin(), remote.end());
  const auto it = links_by_peer_.find(neighbor);
  if (it == links_by_peer_.end()) {
    return;
  }
  std::vector<FuseId> mine;
  SortedIds(it->second, mine);
  const TimePoint now = transport_->env().Now();
  bool agreed = false;
  for (const FuseId& id : mine) {
    // Re-probe: an earlier teardown may have cascaded into this table.
    const LinkEntry* link = FindLink(id, neighbor);
    if (link == nullptr) {
      continue;
    }
    if (std::binary_search(remote.begin(), remote.end(), id)) {
      agreed = true;  // the tree lives on (paper 6.3)
    } else if (now - link->installed_at > params_.grace_period) {
      // Disagreement beyond the grace period: the neighbor does not believe
      // this liveness tree exists; tear it down on our side.
      HandleLinkDown(id, neighbor);
    }
  }
  if (agreed) {
    // One stamp bump confirms every agreed group on the link. Re-find: the
    // HandleLinkDown calls above may have erased and recreated table entries.
    const auto it2 = links_by_peer_.find(neighbor);
    if (it2 != links_by_peer_.end()) {
      it2->second.last_refresh = now;
    }
  }
}

void FuseNode::OnReconcileRequest(const WireMessage& msg) {
  // Reply with our view first (so the requester always gets an answer), then
  // process theirs.
  WireMessage reply;
  reply.to = msg.from;
  reply.type = msgtype::kFuseReconcileReply;
  reply.category = MsgCategory::kFuseReconcile;
  reply.payload = EncodeLinkList(msg.from);
  transport_->Send(std::move(reply), nullptr);

  Reader r(msg.payload);
  ProcessRemoteLinkList(msg.from, r);
}

void FuseNode::OnReconcileReply(const WireMessage& msg) {
  Reader r(msg.payload);
  ProcessRemoteLinkList(msg.from, r);
}

// ---------------------------------------------------------------------------
// Notifications.
// ---------------------------------------------------------------------------

void FuseNode::SendSoftToTree(GroupState& g, HostId except, uint32_t seq) {
  const PayloadBuf payload = EncodeIdSeq(g.id, seq);
  for (const HostId peer : g.links) {
    if (peer != except) {
      SendSoft(peer, payload);
    }
  }
}

void FuseNode::SendSoft(HostId to, const PayloadBuf& payload) {
  WireMessage msg;
  msg.to = to;
  msg.type = msgtype::kFuseSoftNotification;
  msg.category = MsgCategory::kFuseSoftNotification;
  msg.payload = payload;
  transport_->Send(std::move(msg), nullptr);
  stats_.soft_notifications_sent++;
}

void FuseNode::SendHard(FuseId id, HostId to) {
  if (!to.valid() || to == transport_->local_host()) {
    return;
  }
  WireMessage msg;
  msg.to = to;
  msg.type = msgtype::kFuseHardNotification;
  msg.category = MsgCategory::kFuseHardNotification;
  msg.payload = EncodeIdOnly(id);
  transport_->Send(std::move(msg), nullptr);
  stats_.hard_notifications_sent++;
}

void FuseNode::OnSoftNotification(const WireMessage& msg) {
  Reader r(msg.payload);
  const FuseId id = ReadFuseId(r);
  const uint32_t seq = r.GetU32();
  if (!r.ok()) {
    return;
  }
  GroupState* g = Find(id);
  if (g == nullptr) {
    return;
  }
  if (seq < g->seq) {
    return;  // stale: a repair already superseded this tree (paper 6.4)
  }
  SendSoftToTree(*g, msg.from, seq);
  if (g->is_member) {
    RemoveLink(*g, msg.from, IdTerm(id));
    MemberInitiateRepair(*g);
  } else if (g->is_root) {
    RemoveLink(*g, msg.from, IdTerm(id));
    RootScheduleRepair(id);
  } else {
    DropGroup(id, /*deliver_to_app=*/false);
  }
}

void FuseNode::OnHardNotification(const WireMessage& msg) {
  Reader r(msg.payload);
  const FuseId id = ReadFuseId(r);
  if (!r.ok()) {
    return;
  }
  GroupState* g = Find(id);
  if (g == nullptr) {
    return;  // already gone: exactly-once behavior
  }
  if (g->is_root) {
    // Forward to every other member (paper 6.4, Figure 4).
    RootFailGroup(*g, msg.from);
    return;
  }
  if (g->is_member) {
    DeliverLocalFailure(id);
    return;
  }
  DropGroup(id, /*deliver_to_app=*/false);
}

void FuseNode::RootFailGroup(GroupState& g, HostId except) {
  const FuseId id = g.id;
  for (const auto& m : g.members) {
    if (m.host != except) {
      SendHard(id, m.host);
    }
  }
  SendSoftToTree(g, HostId(), g.seq);
  DeliverLocalFailure(id);
}

void FuseNode::MemberFailGroup(GroupState& g) {
  const FuseId id = g.id;
  SendHard(id, g.root.host);
  SendSoftToTree(g, HostId(), g.seq);
  DeliverLocalFailure(id);
}

void FuseNode::DeliverLocalFailure(FuseId id) { DropGroup(id, /*deliver_to_app=*/true); }

void FuseNode::DropGroup(FuseId id, bool deliver_to_app) {
  const GroupRef* rp = group_index_.Find(id.hi, id.lo);
  if (rp == nullptr) {
    return;
  }
  const GroupRef ref = *rp;
  GroupState& g = *group_pool_.Get(ref);
  // Releasing the pool slot below disarms every timer the group owns
  // (backstop, repair machinery); only the peer index needs explicit
  // maintenance.
  const IdTerm term(id);
  for (const HostId peer : g.links) {
    EraseLinkIndex(id, peer, term);
  }
  const bool was_participant = g.is_root || g.is_member;
  FailureHandler handler = std::move(g.handler);
  group_index_.Erase(id.hi, id.lo);
  group_pool_.Release(ref);
  if (was_participant) {
    stats_.groups_failed++;
  }
  if (deliver_to_app && handler) {
    stats_.notifications_delivered++;
    handler(id);
  }
}

// ---------------------------------------------------------------------------
// Repair.
// ---------------------------------------------------------------------------

void FuseNode::MemberInitiateRepair(GroupState& g) {
  if (g.aux != nullptr && g.aux->member_repair_timer.pending()) {
    return;  // already waiting for the root
  }
  const FuseId id = g.id;
  WireMessage msg;
  msg.to = g.root.host;
  msg.type = msgtype::kFuseNeedRepair;
  msg.category = MsgCategory::kFuseNeedRepair;
  msg.payload = EncodeIdSeq(id, g.seq);
  // Arm the timer before issuing the send: when the root's connection is
  // already gone, Send invokes the error callback synchronously, which fails
  // the group and frees this GroupState — touching `g` after Send would be a
  // use-after-free. DropGroup disarms the timer along with the rest of the
  // group's state, so arming first is safe in either order.
  RepairAux& aux = Aux(g);
  aux.member_repair_timer.Bind(transport_->env());
  aux.member_repair_timer.Start(params_.member_repair_timeout, [this, id] {
    // No repair response from the root within a minute (paper 6.5 / 7.4):
    // signal locally, best-effort Hard to the root, clean up.
    GroupState* grp = Find(id);
    if (grp != nullptr) {
      MemberFailGroup(*grp);
    }
  });
  transport_->Send(std::move(msg), [this, id](const Status& s) {
    if (s.ok()) {
      return;
    }
    // Root unreachable (broken connection): treat as group failure (6.1).
    GroupState* grp = Find(id);
    if (grp != nullptr && grp->is_member) {
      MemberFailGroup(*grp);
    }
  });
}

void FuseNode::OnNeedRepair(const WireMessage& msg) {
  Reader r(msg.payload);
  const FuseId id = ReadFuseId(r);
  r.GetU32();  // member's seq (informational)
  if (!r.ok()) {
    return;
  }
  GroupState* g = Find(id);
  if (g == nullptr || !g->is_root) {
    // The group no longer exists here: make sure the member finds out.
    SendHard(id, msg.from);
    return;
  }
  RootScheduleRepair(id);
}

void FuseNode::RootScheduleRepair(FuseId id) {
  GroupState* g = Find(id);
  if (g == nullptr || !g->is_root) {
    return;
  }
  RepairAux& aux = Aux(*g);
  if (aux.repair != nullptr) {
    // A round is already in flight. It cannot simply absorb this request:
    // the member asking for repair may have lost its freshly-installed path
    // in a race with the round's own installs, in which case the round
    // completes with that member holding no liveness links at all — and its
    // crash would go undetected. Remember to run another round when the
    // current one (and its installs) finish.
    aux.rerepair_requested = true;
    return;
  }
  if (aux.scheduled_repair.pending()) {
    return;  // a repair is queued; it will rebuild from the state at start
  }
  Environment& env = transport_->env();
  const TimePoint now = env.Now();
  // Exponential backoff per group, capped at 40 s; decays after quiet periods
  // (paper 6.5).
  if (aux.last_repair_time != TimePoint() &&
      now - aux.last_repair_time > params_.repair_backoff_reset) {
    aux.repair_backoff = Duration::Zero();
  }
  const Duration delay = aux.repair_backoff;
  aux.repair_backoff = aux.repair_backoff.IsZero()
                           ? params_.repair_backoff_initial
                           : std::min(aux.repair_backoff * int64_t{2}, params_.repair_backoff_cap);
  aux.scheduled_repair.Bind(env);
  aux.scheduled_repair.Start(delay, [this, id] { RootStartRepair(id); });
}

void FuseNode::RootStartRepair(FuseId id) {
  GroupState* g = Find(id);
  if (g == nullptr || !g->is_root || (g->aux != nullptr && g->aux->repair != nullptr)) {
    return;
  }
  Environment& env = transport_->env();
  stats_.repairs_initiated++;
  RepairAux& aux = Aux(*g);
  // Complaints that predate this round are satisfied by it; only a
  // NeedRepair racing with the round's installs re-arms the flag.
  aux.rerepair_requested = false;
  g->seq++;
  aux.last_repair_time = env.Now();
  aux.repair = std::make_unique<RepairPending>();
  aux.install_pending.clear();
  for (const auto& m : g->members) {
    aux.repair->awaiting_reply.insert(m.name);
    aux.install_pending.insert(m.name);
  }
  aux.install_timer.Cancel();
  aux.repair->timer.Bind(env);
  aux.repair->timer.Start(params_.root_repair_timeout, [this, id] { RootRepairFailed(id); });

  const PayloadBuf repair_payload = EncodeIdSeq(id, g->seq);
  // Snapshot the member hosts: a send to an already-disconnected member
  // fails synchronously, and the failure callback fails the whole group and
  // frees this GroupState — iterating g->members directly would walk freed
  // memory once that happens.
  std::vector<HostId> member_hosts;
  member_hosts.reserve(g->members.size());
  for (const auto& m : g->members) {
    member_hosts.push_back(m.host);
  }
  for (HostId host : member_hosts) {
    WireMessage msg;
    msg.to = host;
    msg.type = msgtype::kFuseGroupRepairRequest;
    msg.category = MsgCategory::kFuseRepair;
    msg.payload = repair_payload;
    transport_->Send(std::move(msg), [this, id](const Status& s) {
      if (!s.ok()) {
        // A member is unreachable: the repair has failed (paper 6.5).
        RootRepairFailed(id);
      }
    });
    if (Find(id) == nullptr) {
      return;  // the group already failed via a synchronous send error
    }
  }
}

void FuseNode::OnRepairRequest(const WireMessage& msg) {
  Reader r(msg.payload);
  const FuseId id = ReadFuseId(r);
  const uint32_t new_seq = r.GetU32();
  if (!r.ok()) {
    return;
  }
  GroupState* g = Find(id);
  Writer w;
  WriteFuseId(w, id);
  WriteNodeRef(w, self());
  if (g == nullptr || g->is_root) {
    // "If a repair message ever encounters a member that no longer has
    // knowledge of the group, it fails and signals a HardNotification."
    w.PutU8(0);
    WireMessage reply;
    reply.to = msg.from;
    reply.type = msgtype::kFuseGroupRepairReply;
    reply.category = MsgCategory::kFuseRepair;
    reply.payload = w.Take();
    transport_->Send(std::move(reply), nullptr);
    return;
  }
  // Adopt the new tree incarnation: stale SoftNotifications for the old tree
  // are discarded from here on (paper 6.5).
  g->seq = std::max(g->seq, new_seq);
  if (g->aux != nullptr) {
    g->aux->member_repair_timer.Cancel();
    MaybeTrimAux(*g);
  }
  // The old tree links are obsolete; the new InstallChecking re-creates them.
  const std::vector<HostId> old_links = g->links;
  const IdTerm term(id);
  for (const HostId peer : old_links) {
    RemoveLink(*g, peer, term);
  }
  ArmBackstop(*g);

  w.PutU8(1);
  WireMessage reply;
  reply.to = msg.from;
  reply.type = msgtype::kFuseGroupRepairReply;
  reply.category = MsgCategory::kFuseRepair;
  reply.payload = w.Take();
  transport_->Send(std::move(reply), nullptr);

  SendInstallChecking(*g);
}

void FuseNode::OnRepairReply(const WireMessage& msg) {
  Reader r(msg.payload);
  const FuseId id = ReadFuseId(r);
  const NodeRef member = ReadNodeRef(r);
  const uint8_t ok = r.GetU8();
  if (!r.ok()) {
    return;
  }
  GroupState* g = Find(id);
  if (g == nullptr || !g->is_root || g->aux == nullptr || g->aux->repair == nullptr) {
    return;
  }
  if (!ok) {
    RootRepairFailed(id);
    return;
  }
  RepairAux& aux = *g->aux;
  aux.repair->awaiting_reply.erase(member.name);
  if (!aux.repair->awaiting_reply.empty()) {
    return;
  }
  // Every member answered: the repair round succeeded. Now wait for the new
  // liveness paths to install.
  aux.repair.reset();  // the repair timer auto-cancels
  if (!aux.install_pending.empty()) {
    aux.install_timer.Bind(transport_->env());
    aux.install_timer.Start(params_.install_timeout, [this, id] { RootScheduleRepair(id); });
  } else if (aux.rerepair_requested) {
    // A member complained mid-round; its path may already be broken again.
    RootScheduleRepair(id);
  }
}

void FuseNode::RootRepairFailed(FuseId id) {
  GroupState* g = Find(id);
  if (g == nullptr || !g->is_root) {
    return;
  }
  RootFailGroup(*g);
}

}  // namespace fuse
