// SkipNetNode: one overlay node — join protocol, greedy name routing with
// per-hop client upcalls, neighbor liveness, and routing-table repair.
//
// This provides the two features the paper's FUSE implementation requires of
// its overlay (section 6.1): client upcalls on every intermediate hop of a
// routed message, and a routing table visible to the client (FUSE piggybacks
// its hash on the ping traffic between routing-table neighbors).
#ifndef FUSE_OVERLAY_SKIPNET_NODE_H_
#define FUSE_OVERLAY_SKIPNET_NODE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "overlay/ping_manager.h"
#include "overlay/routing_table.h"
#include "overlay/skipnet_id.h"
#include "rpc/rpc.h"
#include "sim/timer.h"
#include "transport/transport.h"

namespace fuse {

// Serialization helpers shared with FUSE wire messages.
void WriteNodeRef(Writer& w, const NodeRef& ref);
NodeRef ReadNodeRef(Reader& r);

struct SkipNetConfig {
  OverlayParams table;
  Duration ping_period = Duration::Seconds(60);  // paper section 7.1
  Duration ping_timeout = Duration::Seconds(20);  // paper section 7.4
  Duration join_timeout = Duration::Seconds(30);
  int join_attempts = 3;
  Duration query_timeout = Duration::Seconds(10);
  int walk_budget = 48;  // max ring-walk steps per level during join/repair
  Duration repair_delay = Duration::Seconds(1);
  // Leaf-set anti-entropy: every period, exchange neighborhoods with one leaf
  // neighbor so the level-0 ring converges after failures.
  Duration leaf_exchange_period = Duration::Seconds(150);
  // When false, liveness pinging must be started explicitly (the cluster
  // harness defers it until the whole overlay is built).
  bool start_maintenance_on_join = true;
  // Batch all of a node's periodic pings behind one timer pair instead of
  // two timers per neighbor (see PingManager). Off by default: with it on,
  // one coalesced round timeout can declare a whole crashed machine's arc of
  // neighbours dead at once, and the sim_groups benchmark then sees false
  // notifications (ROADMAP, "No false notifications after a machine crash,
  // part 2"). Large-scale benches turn it on.
  bool coalesce_pings = false;
};

class SkipNetNode {
 public:
  using JoinCallback = std::function<void(const Status&)>;

  // Per-hop upcall for routed client messages. Fires on every node the
  // message visits, including the origin and the terminal node. The handler
  // may mutate `payload` (the message forwards with the mutated bytes) and
  // may consume the message by returning true (it is not forwarded further).
  struct RoutedUpcall {
    std::string dest;       // destination name
    NodeRef origin;         // node that called RouteByName
    HostId prev_hop;        // invalid at the origin
    NodeRef next_hop;       // invalid at the terminal node
    bool at_dest = false;   // true iff this node's name equals dest
    int hop_index = 0;      // 0 at the origin
    std::vector<uint8_t> payload;
  };
  using RoutedHandler = std::function<bool(RoutedUpcall&)>;
  using NeighborFailureHandler = std::function<void(HostId)>;

  SkipNetNode(Transport* transport, RpcNode* rpc, std::string name, NumericId numeric,
              SkipNetConfig config);
  ~SkipNetNode();

  SkipNetNode(const SkipNetNode&) = delete;
  SkipNetNode& operator=(const SkipNetNode&) = delete;

  // --- lifecycle ---
  // Declares this node the first member of a fresh overlay.
  void JoinAsFirst();
  // Joins via any existing member; `cb` fires once.
  void Join(HostId bootstrap, JoinCallback cb);
  bool joined() const { return joined_; }
  // Begins neighbor liveness checking (called automatically after join).
  void StartMaintenance();
  // Runs one leaf-set anti-entropy exchange immediately (used by the cluster
  // harness to converge the ring right after construction).
  void RunLeafExchangeOnce();
  // Stops all timers; the node stops participating (used before destruction).
  void Shutdown();

  // --- identity / introspection ---
  const NodeRef& self() const { return self_; }
  const NumericId& numeric() const { return numeric_; }
  const RoutingTable& table() const { return table_; }
  std::vector<HostId> DistinctNeighborHosts() const { return table_.DistinctNeighborHosts(); }
  size_t NumDistinctNeighbors() const { return table_.DistinctNeighborHosts().size(); }

  // --- client (FUSE) surface ---
  void SetRoutedHandler(uint16_t client_tag, RoutedHandler handler);
  // Routes `payload` greedily toward `dest_name`; upcalls fire along the way.
  void RouteByName(const std::string& dest_name, uint16_t client_tag,
                   std::vector<uint8_t> payload, MsgCategory category);
  void SetPingPayloadProvider(PingManager::PayloadProvider p);
  void SetPingPayloadObserver(PingManager::PayloadObserver o);
  // Client hook invoked (in addition to internal repair) when a routing-table
  // neighbor is detected as failed.
  void SetNeighborFailureHandler(NeighborFailureHandler h);

  // Reports a neighbor as failed (e.g. the client saw a broken connection).
  void ReportNeighborFailure(HostId host);

 private:
  // Internal routed-message tag for join searches.
  static constexpr uint16_t kJoinSearchTag = 0;

  struct RoutedEnvelope {
    std::string dest;
    uint16_t tag = 0;
    NodeRef origin;
    uint16_t hops = 0;
    uint8_t category = 0;
    std::vector<uint8_t> payload;
  };

  static std::vector<uint8_t> EncodeEnvelope(const RoutedEnvelope& env);
  static std::optional<RoutedEnvelope> DecodeEnvelope(const WireMessage& msg);

  // --- routed messages ---
  void HandleRouted(const WireMessage& msg);
  void ProcessEnvelope(RoutedEnvelope env, HostId prev_hop);
  void ForwardEnvelope(RoutedEnvelope env, const NodeRef& next, int retries_left);

  // --- join ---
  void HandleJoinSearch(const RoutedUpcall& upcall);
  void HandleJoinSearchReply(const WireMessage& msg);
  void StartJoinAttempt();
  void FinishJoin(const Status& status);
  void ClimbLevel(int level, bool clockwise, NodeRef walk_at, int steps_left);
  void ClimbNextAfter(int level, bool clockwise);

  // --- neighbor pointer maintenance ---
  void HandleNeighborNotify(const WireMessage& msg);
  void SendNeighborNotify(const NodeRef& to, int level);
  // Adopts `candidate` into level `h` pointers / leaf set if it is nearer
  // than what we have. Returns true if anything changed.
  bool TryAdopt(int level, const NodeRef& candidate, const NumericId& numeric);

  // --- neighbor queries (rpc) ---
  std::vector<uint8_t> HandleNeighborQuery(HostId caller, const std::vector<uint8_t>& req);

  // --- failure handling / repair ---
  void OnNeighborFailed(HostId host);
  void ScheduleRepair();
  void RunRepair();
  void RepairWalk(int level, bool clockwise, NodeRef walk_at, int steps_left);
  void RefillLeafSet();
  // Asks `target` for its neighborhood and merges the reply into our table.
  void QueryAndMergeNeighborhood(const NodeRef& target);
  void ScheduleLeafExchange();
  void FixLevelZeroFromLeafSet();

  void RefreshPingSet();

  Transport* transport_;
  RpcNode* rpc_;
  NodeRef self_;
  NumericId numeric_;
  SkipNetConfig config_;
  RoutingTable table_;
  PingManager pings_;

  bool joined_ = false;
  bool shutdown_ = false;

  // Join state.
  JoinCallback join_cb_;
  HostId join_bootstrap_;
  int join_attempts_left_ = 0;
  Timer join_timer_;
  int climb_level_ = 0;
  bool climb_cw_done_ = false;

  // Pending repair.
  Timer repair_timer_;
  Timer leaf_exchange_timer_;
  bool exchange_cw_next_ = true;

  // Hosts recently detected as failed: not re-adopted from stale candidate
  // lists until the quarantine expires (or they contact us again).
  std::unordered_map<HostId, TimePoint> recently_failed_;
  bool IsQuarantined(HostId host) const;
  void ClearQuarantine(HostId host) { recently_failed_.erase(host); }

  std::unordered_map<uint16_t, RoutedHandler> routed_handlers_;
  NeighborFailureHandler client_failure_handler_;
  PingManager::PayloadProvider client_payload_provider_;
};

}  // namespace fuse

#endif  // FUSE_OVERLAY_SKIPNET_NODE_H_
