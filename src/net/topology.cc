#include "net/topology.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <utility>

#include "common/logging.h"

namespace fuse {
namespace {

constexpr uint32_t kUnreachableLat = std::numeric_limits<uint32_t>::max();

}  // namespace

Topology Topology::Generate(const TopologyConfig& config, Rng& rng) {
  FUSE_CHECK(config.num_as >= 4) << "need at least 4 ASs";
  Topology topo;
  topo.num_as_ = static_cast<size_t>(config.num_as);

  const int num_tier1 = std::max(3, static_cast<int>(config.num_as * config.tier1_fraction));

  // AS-level adjacency: (neighbor, latency_us). Links are symmetric.
  auto& adj = topo.as_adj_;
  adj.resize(topo.num_as_);
  size_t link_count = 0;
  auto sample_latency = [&](bool t3) -> uint32_t {
    const Duration lo = t3 ? config.t3_latency_min : config.oc3_latency_min;
    const Duration hi = t3 ? config.t3_latency_max : config.oc3_latency_max;
    return static_cast<uint32_t>(rng.UniformInt(lo.ToMicros(), hi.ToMicros()));
  };
  auto add_link = [&](uint32_t a, uint32_t b, bool t3) {
    if (a == b) {
      return;
    }
    for (const auto& [n, _] : adj[a]) {
      if (n == b) {
        return;  // already linked
      }
    }
    const uint32_t lat = sample_latency(t3);
    adj[a].emplace_back(b, lat);
    adj[b].emplace_back(a, lat);
    ++link_count;
  };

  // Tier-1 clique (ASs [0, num_tier1)); backbone links are always fast.
  for (int i = 0; i < num_tier1; ++i) {
    for (int j = i + 1; j < num_tier1; ++j) {
      add_link(static_cast<uint32_t>(i), static_cast<uint32_t>(j), /*t3=*/false);
    }
  }
  // Stub ASs multi-home to tier-1s. A t3_fraction of stubs is "T3-homed":
  // every uplink is a slow T3 line, so shortest-path routing cannot avoid it.
  // (With T3 assigned per link, Dijkstra routes around almost all of them and
  // the paper's heavy latency tail disappears.)
  std::vector<bool> t3_homed_stub(topo.num_as_, false);
  for (int s = num_tier1; s < config.num_as; ++s) {
    const bool t3_homed = rng.Bernoulli(config.t3_fraction);
    t3_homed_stub[static_cast<size_t>(s)] = t3_homed;
    const int uplinks =
        static_cast<int>(rng.UniformInt(config.min_uplinks, config.max_uplinks));
    for (int u = 0; u < uplinks; ++u) {
      const uint32_t t1 = static_cast<uint32_t>(rng.UniformInt(0, num_tier1 - 1));
      add_link(static_cast<uint32_t>(s), t1, t3_homed);
    }
  }
  // Stub-stub peering links among fast stubs only: T3-homed stubs have no
  // escape route, preserving the heavy latency tail the paper measured.
  const int num_stubs = config.num_as - num_tier1;
  const int num_peer_links = static_cast<int>(num_stubs * config.peer_link_fraction);
  for (int i = 0; i < num_peer_links; ++i) {
    const uint32_t a =
        static_cast<uint32_t>(rng.UniformInt(num_tier1, config.num_as - 1));
    const uint32_t b =
        static_cast<uint32_t>(rng.UniformInt(num_tier1, config.num_as - 1));
    if (t3_homed_stub[a] || t3_homed_stub[b]) {
      continue;
    }
    add_link(a, b, /*t3=*/false);
  }
  topo.num_as_links_ = link_count;

  // Routers: each AS gets a pool of routers below its core.
  for (uint32_t as = 0; as < topo.num_as_; ++as) {
    const int n_routers =
        static_cast<int>(rng.UniformInt(config.routers_per_as_min, config.routers_per_as_max));
    for (int r = 0; r < n_routers; ++r) {
      Router router;
      router.as_index = as;
      router.depth =
          static_cast<uint16_t>(rng.UniformInt(config.router_depth_min, config.router_depth_max));
      uint32_t lat = 0;
      for (int d = 0; d < router.depth; ++d) {
        lat += static_cast<uint32_t>(rng.UniformInt(config.intra_hop_latency_min.ToMicros(),
                                                    config.intra_hop_latency_max.ToMicros()));
      }
      router.to_core_lat_us = lat;
      topo.routers_.push_back(router);
    }
  }

  topo.rows_ = std::make_unique<RouteRow[]>(topo.num_as_);
  return topo;
}

const std::vector<Topology::RouteEntry>& Topology::Row(uint32_t src) const {
  RouteRow& row = rows_[src];
  std::call_once(row.once, [&] {
    // Dijkstra from src. The AS graph is small (hundreds to a few thousand
    // nodes), so one row is cheap.
    const size_t n = num_as_;
    using HeapEntry = std::pair<uint64_t, uint32_t>;  // (dist, as)
    std::vector<uint64_t> dist(n, std::numeric_limits<uint64_t>::max());
    std::vector<uint16_t> hops(n, 0);
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap;
    dist[src] = 0;
    heap.emplace(0, src);
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (d > dist[u]) {
        continue;
      }
      for (const auto& [v, w] : as_adj_[u]) {
        const uint64_t nd = d + w;
        if (nd < dist[v]) {
          dist[v] = nd;
          hops[v] = static_cast<uint16_t>(hops[u] + 1);
          heap.emplace(nd, v);
        }
      }
    }
    row.to.resize(n);
    for (size_t dst = 0; dst < n; ++dst) {
      row.to[dst] = dist[dst] == std::numeric_limits<uint64_t>::max()
                        ? RouteEntry{kUnreachableLat, 0}
                        : RouteEntry{static_cast<uint32_t>(dist[dst]), hops[dst]};
    }
  });
  return row.to;
}

size_t Topology::DebugRowsComputed() const {
  size_t computed = 0;
  for (size_t as = 0; as < num_as_; ++as) {
    computed += rows_[as].to.empty() ? 0 : 1;
  }
  return computed;
}

Topology::PathInfo Topology::GetPath(RouterId a, RouterId b) const {
  FUSE_CHECK(a.value < routers_.size() && b.value < routers_.size()) << "bad router id";
  if (a == b) {
    // Co-located endpoints: one local hop.
    return PathInfo{Duration::Micros(200), 1};
  }
  const Router& ra = routers_[a.value];
  const Router& rb = routers_[b.value];
  if (ra.as_index == rb.as_index) {
    // Intra-AS path via the core.
    return PathInfo{Duration::Micros(ra.to_core_lat_us + rb.to_core_lat_us),
                    static_cast<uint32_t>(ra.depth + rb.depth)};
  }
  const RouteEntry& route = Row(ra.as_index)[rb.as_index];
  FUSE_CHECK(route.lat_us != kUnreachableLat) << "AS graph must be connected";
  return PathInfo{Duration::Micros(ra.to_core_lat_us + route.lat_us + rb.to_core_lat_us),
                  static_cast<uint32_t>(ra.depth + route.hops + rb.depth)};
}

}  // namespace fuse
