// Liveness checking of overlay neighbors.
//
// Every host in the owner's ping set (its distinct routing-table neighbors
// plus the hosts its client pins) is pinged once per period (60 s in
// the paper, with a 20 s timeout — section 7.4). Each ping request and reply
// carries an opaque client payload: this is the hook FUSE uses to piggyback
// its 20-byte SHA-1 hash of the jointly monitored group list (section 6.1),
// so FUSE adds no messages of its own in the failure-free steady state.
// Links are monitored from both sides: each endpoint pings independently.
//
// The warm request→reply cycle is allocation-free end to end: peers live in
// an open-addressed table (common/flat_map.h) reconciled against the wanted
// set by epoch stamping instead of a scratch hash map, messages are encoded
// into a reused Writer whose bytes become an inline PayloadBuf, the client
// payload is appended directly to that Writer by the provider, and the
// observer sees the remote payload as a view into the received message. Each
// peer owns a rearming PeriodicTimer (phase-jittered so the cluster's ping
// load spreads over the period) and a one-shot timeout Timer whose callback
// is installed once at peer creation.
//
// Wire format (request and reply): u64 sequence number, then the client
// payload running to the end of the message.
#ifndef FUSE_OVERLAY_PING_MANAGER_H_
#define FUSE_OVERLAY_PING_MANAGER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/flat_map.h"
#include "common/ids.h"
#include "common/serialize.h"
#include "common/time.h"
#include "sim/timer.h"
#include "transport/transport.h"

namespace fuse {

class PingManager {
 public:
  // Appends the payload for a ping (request or reply) on the link to
  // `neighbor` directly to the message under construction.
  using PayloadProvider = std::function<void(HostId neighbor, Writer& w)>;
  // Observes the payload the remote side attached (fires for both requests
  // and replies received). The bytes are only valid during the call.
  using PayloadObserver = std::function<void(HostId neighbor, const uint8_t* data, size_t len)>;
  // A neighbor failed to acknowledge a ping within the timeout (or the
  // connection broke).
  using FailureHandler = std::function<void(HostId neighbor)>;

  // With `coalesce` set, the manager runs ONE phase-jittered periodic timer
  // that pings every peer in a batch round, plus ONE timeout timer tracking
  // the earliest outstanding per-peer deadline — 2 armed timers per node
  // instead of 2 per (node, neighbor), which is what keeps the timer wheels
  // breathing at 100k nodes. Per-peer semantics are preserved exactly: each
  // peer's failure verdict still lands `timeout` after its own unanswered
  // ping (the shared timer re-arms to the next-earliest deadline), and any
  // reply still disarms that peer. What changes is phasing: all of a node's
  // pings leave together once per period instead of each on its own jitter,
  // and a peer added mid-period waits for the next round instead of getting
  // an immediate jittered first ping.
  PingManager(Transport* transport, Duration period, Duration timeout, bool coalesce = false);
  ~PingManager();

  PingManager(const PingManager&) = delete;
  PingManager& operator=(const PingManager&) = delete;

  void SetPayloadProvider(PayloadProvider p) { provider_ = std::move(p); }
  void SetPayloadObserver(PayloadObserver o) { observer_ = std::move(o); }
  void SetFailureHandler(FailureHandler h) { on_failure_ = std::move(h); }

  // Reconciles the pinged set with the current neighbor list: new neighbors
  // get a jittered first ping; removed neighbors stop being pinged. A host
  // listed twice counts once.
  void UpdateNeighbors(const std::vector<HostId>& neighbors);
  // Adds one peer (a no-op if it is pinged already) or removes one, leaving
  // the rest of the set as it is.
  void AddPeer(HostId peer);
  void RemovePeer(HostId peer);

  void Start();
  void Stop();
  bool running() const { return running_; }

  size_t NumPeers() const { return peers_.size(); }
  bool HasPeer(HostId peer) const { return peers_.Find(peer.value) != nullptr; }

 private:
  struct Peer {
    PeriodicTimer ping;  // sends one ping per period (jittered phase)
    Timer timeout;       // armed while a ping is unanswered; any reply disarms
    bool failed = false; // failure already reported; awaiting removal
    uint64_t wanted_epoch = 0;  // last UpdateNeighbors round that listed us
    // Coalesced mode only: an unanswered ping is outstanding and its failure
    // verdict is due at `deadline` (tracked by the shared round_timeout_).
    bool awaiting = false;
    TimePoint deadline;
  };

  // The peer's entry, created (with its first ping scheduled) if missing.
  Peer& Want(HostId peer);
  // Begins the peer's periodic ping cycle at a jittered phase.
  void StartPeerPings(HostId peer);
  void SendPing(HostId peer);
  // Encodes and transmits one ping (no timeout bookkeeping).
  void SendPingTo(HostId peer);
  // Coalesced mode: one batch of pings to every live peer.
  void SendRound();
  // Coalesced mode: fail every peer whose deadline passed, then re-arm for
  // the earliest remaining one.
  void OnRoundTimeout();
  void OnPing(const WireMessage& msg);
  void OnPingReply(const WireMessage& msg);
  void HandleFailure(HostId peer);

  Transport* transport_;
  Duration period_;
  Duration timeout_;
  PayloadProvider provider_;
  PayloadObserver observer_;
  FailureHandler on_failure_;
  FlatMap<Peer> peers_;  // keyed by HostId::value
  uint64_t next_seq_ = 1;
  uint64_t wanted_epoch_ = 0;
  bool running_ = false;
  const bool coalesce_;
  PeriodicTimer round_timer_;  // coalesced: one ping batch per period
  Timer round_timeout_;        // coalesced: earliest outstanding deadline
  Writer scratch_;                // reused encode buffer (capacity stays warm)
  std::vector<uint64_t> doomed_;  // reused reconciliation scratch
  std::vector<uint64_t> round_scratch_;  // reused batch scratch (coalesced)
};

}  // namespace fuse

#endif  // FUSE_OVERLAY_PING_MANAGER_H_
