// FuseNode: the FUSE layer on one host (paper sections 3, 5, 6).
//
// Public API (paper Figure 1): CreateGroup / RegisterFailureHandler /
// SignalFailure, providing *distributed one-way agreement*: once any member
// observes a failure — node crash, arbitrary network failure, or an explicit
// application signal — every live group member hears exactly one failure
// notification within a bounded time, and the group is gone.
//
// Implementation choices match the paper's:
//  * blocking create semantics (the callback fires only after every member
//    was contacted, or with an error after the create timeout);
//  * liveness spanning trees along overlay routes (members route
//    InstallChecking toward the root; intermediate nodes become delegates);
//  * liveness is piggybacked on overlay ping traffic as a 20-byte SHA-1
//    fingerprint of the per-link live FUSE-ID set, so FUSE adds no
//    steady-state messages;
//  * hash mismatches trigger a reconcile exchange with a 5 s grace period;
//  * delegate/path failures trigger SoftNotifications and *repair*, not
//    application-visible failures; create/repair failures and explicit
//    signals trigger HardNotifications that are reflected to applications;
//  * per-group repair frequency backs off exponentially, capped at 40 s;
//  * no stable storage: crash recovery is re-registration plus the
//    reconciliation mechanism tearing down groups the crashed node forgot.
//
// Liveness cost per ping is O(1) in the number of groups on a link (paper
// 7.5: steady-state cost must not grow with the group count). The piggyback
// fingerprint is an XOR-of-SHA1 set digest maintained at link add/remove
// time, not recomputed per ping. Each overlay neighbor owns one open-addressed
// link table keyed by FUSE ID, so adding, removing, reconciling, or sweeping
// links through a peer never goes through the group table; a group keeps only
// its link peers, in install order. Enumerations whose order reaches the wire
// or the event schedule sort a snapshot by FUSE ID first, so the table's
// probe order never shows. No group arms a timer on the healthy path:
// each link records its last install, each neighbor its last confirmation
// (matching ping digest or reconcile agreement), and one earliest-deadline
// sweep timer per node tears down every link whose deadline
// max(install, confirmation) + link_liveness_timeout has passed. Only a
// participant with no links left arms a per-group backstop. Group state
// lives in a generation-tagged Pool indexed by a Flat128Map, with the
// rarely-used repair machinery split into an on-demand side allocation, so
// a million idle groups cost bytes, not timers.
#ifndef FUSE_FUSE_FUSE_NODE_H_
#define FUSE_FUSE_FUSE_NODE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/pool.h"
#include "common/sha1.h"
#include "common/status.h"
#include "fuse/fuse_id.h"
#include "fuse/params.h"
#include "overlay/skipnet_node.h"
#include "sim/timer.h"
#include "transport/transport.h"

namespace fuse {

class FuseNode {
 public:
  // Invoked exactly once when the group fails. The handler may call back
  // into FuseNode (e.g. to create a replacement group).
  using FailureHandler = std::function<void(FuseId)>;
  using CreateCallback = std::function<void(const Status&, FuseId)>;

  // Statistics exposed for tests and benches.
  struct Stats {
    uint64_t notifications_delivered = 0;  // app handler invocations
    uint64_t hard_notifications_sent = 0;
    uint64_t soft_notifications_sent = 0;
    uint64_t repairs_initiated = 0;        // root-side repair rounds
    uint64_t reconciles = 0;
    uint64_t groups_created = 0;
    uint64_t groups_failed = 0;            // groups that died at this node
  };

  // The overlay routed-message tag FUSE claims for InstallChecking.
  static constexpr uint16_t kRoutedTag = 1;

  FuseNode(Transport* transport, SkipNetNode* overlay, FuseParams params = FuseParams());
  ~FuseNode();

  FuseNode(const FuseNode&) = delete;
  FuseNode& operator=(const FuseNode&) = delete;

  // --- paper Figure 1 API ---
  // Creates a group containing this node (the root) and `members`. The
  // callback fires with Ok and the new FUSE ID once every member was
  // contacted, or with an error (and the dead ID) if any was unreachable.
  void CreateGroup(std::vector<NodeRef> members, CreateCallback cb);
  // Registers the failure callback. If the ID is unknown or already failed,
  // the handler is invoked immediately (asynchronously), per section 3.2.
  void RegisterFailureHandler(FuseId id, FailureHandler handler);
  // Explicit failure notification (fail-on-send, application-defined failure
  // conditions, voluntary departure — sections 3.4, 4).
  void SignalFailure(FuseId id);

  // --- introspection ---
  bool HasLiveGroup(FuseId id) const { return group_index_.Find(id.hi, id.lo) != nullptr; }
  // True if this node holds root or member (participant) state for the group;
  // false for delegate-only state or unknown ids.
  bool IsParticipant(FuseId id) const {
    const GroupState* g = Find(id);
    return g != nullptr && (g->is_root || g->is_member);
  }
  size_t NumLiveGroups() const { return group_index_.size(); }
  // Total (group, neighbor) pairs monitored on this node's overlay links —
  // the messages-per-period a non-piggybacked implementation would send.
  size_t NumMonitoredLinks() const {
    size_t n = 0;
    for (const auto& [peer, pl] : links_by_peer_) {
      n += pl.links.size();
    }
    return n;
  }
  const Stats& stats() const { return stats_; }
  NodeRef self() const { return overlay_->self(); }
  // One-line summary of the group's local state (role, seq, monitored link
  // peers) — empty string when the group is unknown here. For tests and
  // fuzz-repro triage.
  std::string DebugGroupState(FuseId id) const;

  // Estimated heap bytes held by this node's group state (pool slots, link
  // index, member lists). For the bytes-per-group bench gauges.
  size_t ApproxGroupBytes() const;
  // Armed FUSE-layer timers (backstop, repair, sweep): O(neighbors) plus
  // transient repair state, independent of the group count.
  size_t CountArmedGroupTimers() const;
  // Oracle for the link index: every link a group lists is in that peer's
  // table, every table entry belongs to a live group that lists the peer,
  // and every per-peer digest equals a from-scratch recompute.
  bool DebugVerifyLinkIndex() const;

  void Shutdown();

 private:
  // All timers below are RAII handles: dropping a CreatePending,
  // RepairPending, or GroupState disarms everything it owns, so the teardown
  // paths need no explicit cancellation bookkeeping.

  // One monitored tree link, stored in its peer's table under the group's ID.
  struct LinkEntry {
    uint32_t seq = 0;           // tree incarnation this link belongs to
    TimePoint installed_at;     // first install: the reconcile grace period
    TimePoint refreshed_at;     // last install or re-install: the deadline floor
  };

  struct CreatePending {
    std::vector<NodeRef> members;
    std::set<std::string> awaiting_reply;    // member names
    std::set<std::string> installed_early;   // InstallChecking before reply
    std::vector<HostId> early_links;         // last hops of early installs
    CreateCallback cb;
    Timer timer;
  };

  struct RepairPending {
    std::set<std::string> awaiting_reply;
    Timer timer;
  };

  // Repair/install machinery, allocated only while a group needs it. The
  // overwhelming majority of groups never repair, so keeping these five
  // timers and three containers out of GroupState is what makes a million
  // idle groups fit densely in the pool. Once a root has run a repair the
  // aux stays (repair_backoff/last_repair_time carry the paper's 6.5 backoff
  // state across rounds); see MaybeTrimAux.
  struct RepairAux {
    // Member: waiting to hear from the root after initiating repair.
    Timer member_repair_timer;
    // Root: repair bookkeeping.
    std::unique_ptr<RepairPending> repair;
    // Root: a NeedRepair arrived while a repair round was already in flight.
    // The complaining member's new path may have raced with the very failure
    // it reported, so the round in flight can complete "successfully" while
    // leaving that member unmonitored — another round must follow.
    bool rerepair_requested = false;
    std::set<std::string> install_pending;  // members whose path is not installed
    Timer install_timer;
    Duration repair_backoff = Duration::Zero();
    TimePoint last_repair_time;
    Timer scheduled_repair;
  };

  struct GroupState {
    FuseId id;
    uint32_t seq = 0;
    bool is_root = false;
    bool is_member = false;     // non-root member
    NodeRef root;               // valid on members
    std::vector<NodeRef> members;  // valid on the root (excludes the root)

    // Peers of the liveness tree links this node monitors for the group, in
    // install order (the order SoftNotifications fan out in). Each link's
    // state lives in that peer's PeerLinks table.
    std::vector<HostId> links;

    // Members/root: group-level liveness backstop (paper 6.2: "a timer ...
    // that will signal failure in the event of future communication
    // failures"). Armed only while the group has no links; the peer sweep
    // covers it otherwise.
    Timer backstop;

    std::unique_ptr<RepairAux> aux;

    FailureHandler handler;
  };

  using GroupRef = Pool<GroupState>::Ref;

  // Per-neighbor liveness index: every link through the peer keyed by FUSE
  // ID, their maintained XOR-of-SHA1 set digest, and the sweep's per-peer
  // stamps.
  struct PeerLinks {
    // Probe order is not canonical: SortedIds gives the FUSE-ID order every
    // enumeration that reaches the wire or the event schedule uses.
    Flat128Map<LinkEntry> links;
    Sha1Digest digest{};
    // Last confirmation of every link through the peer: a matching ping
    // digest or a reconcile agreement. Installs do not count.
    TimePoint last_refresh;
    // Lower bound on the earliest link deadline through the peer; the sweep
    // skips the peer until then.
    TimePoint sweep_at;
  };

  // --- API plumbing ---
  void FinishCreate(FuseId id, const Status& status);

  // --- wire handlers ---
  void OnCreateRequest(const WireMessage& msg);
  void OnCreateReply(const WireMessage& msg);
  bool OnInstallUpcall(const SkipNetNode::RoutedUpcall& upcall);
  void OnSoftNotification(const WireMessage& msg);
  void OnHardNotification(const WireMessage& msg);
  void OnNeedRepair(const WireMessage& msg);
  void OnRepairRequest(const WireMessage& msg);
  void OnRepairReply(const WireMessage& msg);
  void OnReconcileRequest(const WireMessage& msg);
  void OnReconcileReply(const WireMessage& msg);

  // --- liveness ---
  void AppendPingPayload(HostId neighbor, Writer& w);
  void OnPingPayload(HostId neighbor, const uint8_t* data, size_t len);
  void OnOverlayNeighborFailed(HostId neighbor);
  // SHA-1(hi || lo) of one FUSE ID: the term XorInto adds to or removes from
  // a peer digest. Hashed on first use, so an operation that touches several
  // links of one group shares one IdTerm and hashes the ID once.
  class IdTerm {
   public:
    explicit IdTerm(FuseId id) : id_(id) {}
    const Sha1Digest& get() const;

   private:
    FuseId id_;
    mutable std::optional<Sha1Digest> term_;
  };

  void AddLink(GroupState& g, HostId peer, uint32_t seq, const IdTerm& term);
  void RemoveLink(GroupState& g, HostId peer, const IdTerm& term);
  void ArmBackstop(GroupState& g);
  void HandleLinkDown(FuseId id, HostId peer);
  // One timer armed at the earliest per-peer sweep_at; firing rescans the
  // peer table and tears down every link past its deadline.
  void ArmPeerSweep();
  void SweepStalePeers();

  // --- notifications ---
  void SendSoftToTree(GroupState& g, HostId except, uint32_t seq);
  void SendSoft(HostId to, const PayloadBuf& payload);
  void SendHard(FuseId id, HostId to);
  // Hard to every member but `except`, Soft down the tree, local upcall.
  void RootFailGroup(GroupState& g, HostId except = HostId());
  // Hard to the root, Soft down the tree, local upcall.
  void MemberFailGroup(GroupState& g);
  void DeliverLocalFailure(FuseId id);      // invoke handler + teardown

  // --- repair ---
  void MemberInitiateRepair(GroupState& g);
  void RootScheduleRepair(FuseId id);
  void RootStartRepair(FuseId id);
  void RootRepairFailed(FuseId id);
  void SendInstallChecking(GroupState& g);

  // --- reconciliation ---
  void MaybeReconcile(HostId neighbor);
  std::vector<uint8_t> EncodeLinkList(HostId neighbor);
  void ProcessRemoteLinkList(HostId neighbor, Reader& r);
  // The IDs in the peer's table, sorted, written into `out`.
  static void SortedIds(const PeerLinks& pl, std::vector<FuseId>& out);

  // --- state management ---
  // Pointers returned by Find/Emplace are invalidated by the next Emplace
  // (the pool's backing vector may grow) — the same contract as Pool::Get.
  // Group allocation happens only in create/install entry paths and inside
  // application failure handlers; never hold a GroupState* across those.
  GroupState* Find(FuseId id);
  const GroupState* Find(FuseId id) const;
  GroupState& Emplace(GroupState&& g);
  void DropGroup(FuseId id, bool deliver_to_app);
  void EraseLinkIndex(FuseId id, HostId peer, const IdTerm& term);
  LinkEntry* FindLink(FuseId id, HostId peer);
  RepairAux& Aux(GroupState& g);
  void MaybeTrimAux(GroupState& g);
  // XORs an ID's term into the digest: self-inverse, so the same call both
  // adds and removes the ID from the set fingerprint.
  static void XorInto(Sha1Digest& digest, const Sha1Digest& term);

  Transport* transport_;
  SkipNetNode* overlay_;
  FuseParams params_;
  bool shutdown_ = false;

  // Group table: a generation-tagged pool of GroupState slots indexed by the
  // full 128-bit FUSE ID (folding to 64 bits would let a hash collision
  // silently alias two live groups).
  Pool<GroupState> group_pool_;
  Flat128Map<GroupRef> group_index_;
  std::unordered_map<FuseId, CreatePending> creating_;
  std::unordered_map<HostId, PeerLinks> links_by_peer_;
  std::unordered_map<HostId, TimePoint> last_reconcile_;

  // The single per-node group-liveness timer, and the time it is armed for.
  Timer peer_sweep_;
  TimePoint sweep_due_;
  // Pooled scratch snapshots for the failure paths (OnOverlayNeighborFailed,
  // SweepStalePeers): reused across invocations, handed off by swap so a
  // reentrant activation owns its own snapshot.
  std::vector<FuseId> fail_scratch_;
  std::vector<std::pair<HostId, FuseId>> sweep_scratch_;

  Stats stats_;
};

}  // namespace fuse

#endif  // FUSE_FUSE_FUSE_NODE_H_
