// Synthetic wide-area router topology.
//
// The paper evaluates on a Mercator router-level topology (102,639 routers,
// 2,662 ASs) with ModelNet link characteristics: 97% OC3 links (10-40 ms),
// 3% T3 links (300-500 ms). We cannot redistribute Mercator, so this module
// generates a hierarchical AS topology calibrated to the route statistics the
// paper actually reports and depends on:
//   * per-route hop counts between hosts of 2-43 with median ~15
//     (drives the per-route loss rates of Figure 11), and
//   * median RPC round-trip latency ~130 ms with a T3-induced heavy tail
//     (Figure 6).
// Structure: a clique of tier-1 ASs; every stub AS multi-homes to 1-3 tier-1s
// and keeps a few stub-stub peering links. Within an AS, each router sits at a
// sampled depth below the AS core; intra-AS hops have sub-millisecond-to-low-
// millisecond latencies. See DESIGN.md ("Simulated / substituted pieces").
//
// Routes are computed on demand: the topology keeps only its AS adjacency
// lists, and the first path asked for from a source AS runs one Dijkstra from
// that AS and caches its row (latency and hop count to every AS) for the
// topology's lifetime. A simulated cluster thus routes only from the ASs its
// hosts occupy, whatever the size of the AS graph. First use of a row is
// thread-safe: the sharded simulator's workers resolve paths concurrently.
#ifndef FUSE_NET_TOPOLOGY_H_
#define FUSE_NET_TOPOLOGY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/time.h"

namespace fuse {

struct TopologyConfig {
  // AS-level structure.
  int num_as = 600;
  double tier1_fraction = 0.05;
  int min_uplinks = 1;  // stub-to-tier1 links per stub AS
  int max_uplinks = 3;
  double peer_link_fraction = 0.15;  // extra stub-stub links / stub count

  // Link classes (paper section 7.1).
  double t3_fraction = 0.03;
  Duration oc3_latency_min = Duration::Millis(10);
  Duration oc3_latency_max = Duration::Millis(40);
  Duration t3_latency_min = Duration::Millis(300);
  Duration t3_latency_max = Duration::Millis(500);

  // Intra-AS structure: routers hang below the AS core router at a sampled
  // depth; each intra-AS hop contributes a small latency.
  int routers_per_as_min = 8;
  int routers_per_as_max = 64;
  int router_depth_min = 1;
  int router_depth_max = 12;
  Duration intra_hop_latency_min = Duration::Micros(400);
  Duration intra_hop_latency_max = Duration::Micros(1200);
};

class Topology {
 public:
  // Generates a topology; deterministic given the config and RNG state.
  static Topology Generate(const TopologyConfig& config, Rng& rng);

  struct Router {
    uint32_t as_index;
    uint16_t depth;           // intra-AS hops between this router and the AS core
    uint32_t to_core_lat_us;  // summed latency of those hops
  };

  struct PathInfo {
    Duration latency;  // one-way propagation latency
    uint32_t hops;     // number of physical links traversed
  };

  size_t NumRouters() const { return routers_.size(); }
  size_t NumAs() const { return num_as_; }
  size_t NumAsLinks() const { return num_as_links_; }

  const Router& router(RouterId id) const { return routers_[id.value]; }
  RouterId RandomRouter(Rng& rng) const {
    return RouterId(static_cast<uint64_t>(rng.UniformInt(0, static_cast<int64_t>(routers_.size()) - 1)));
  }

  // One-way path between two routers (shortest AS-level latency path through
  // the core hierarchy). Same router => a single local hop. The first call
  // from a's AS computes that AS's route row; safe to call from any thread.
  PathInfo GetPath(RouterId a, RouterId b) const;

  // AS-core to AS-core one-way latency in microseconds (0 for a == b;
  // UINT32_MAX for a disconnected pair). Used by the sharded simulator's
  // lookahead computation, which needs the AS-level component of GetPath
  // without enumerating router pairs. Computes as_a's row on first use, like
  // GetPath.
  uint32_t AsLatencyUs(uint32_t as_a, uint32_t as_b) const {
    return as_a == as_b ? 0 : Row(as_a)[as_b].lat_us;
  }

  // An AS's links: (neighbor AS, one-way latency in microseconds).
  const std::vector<std::pair<uint32_t, uint32_t>>& AsLinks(uint32_t as) const {
    return as_adj_[as];
  }

  // Number of route rows computed so far. For tests; not safe concurrently
  // with a first use.
  size_t DebugRowsComputed() const;

 private:
  // Shortest path (by latency) from a row's source AS to one AS.
  struct RouteEntry {
    uint32_t lat_us;  // UINT32_MAX when unreachable (should not occur)
    uint16_t hops;
  };
  // One source AS's routes, filled by the first caller through `once`.
  struct RouteRow {
    std::once_flag once;
    std::vector<RouteEntry> to;
  };

  Topology() = default;

  const std::vector<RouteEntry>& Row(uint32_t src) const;

  size_t num_as_ = 0;
  size_t num_as_links_ = 0;
  std::vector<Router> routers_;
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> as_adj_;
  // One row per source AS, heap-held so the cache survives moving the
  // topology (a once_flag cannot move).
  std::unique_ptr<RouteRow[]> rows_;
};

}  // namespace fuse

#endif  // FUSE_NET_TOPOLOGY_H_
