// SkipNet routing state for one node: per-level ring pointers plus the
// level-0 leaf set. Pure data structure — all messaging lives in SkipNetNode.
#ifndef FUSE_OVERLAY_ROUTING_TABLE_H_
#define FUSE_OVERLAY_ROUTING_TABLE_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.h"
#include "overlay/skipnet_id.h"

namespace fuse {

struct OverlayParams {
  int base = 8;            // ring branching factor (paper section 7.1)
  int leaf_set_half = 8;   // leaf set of 16: 8 nearest on each side
  int max_levels = 21;     // 64-bit numeric ids, 3 bits per digit

  int bits_per_digit() const {
    int b = 0;
    while ((1 << (b + 1)) <= base) {
      ++b;
    }
    return b == 0 ? 1 : b;
  }
};

class RoutingTable {
 public:
  RoutingTable(std::string self_name, const OverlayParams& params)
      : self_name_(std::move(self_name)), params_(params), levels_(params.max_levels) {}

  struct LevelEntry {
    NodeRef cw;
    NodeRef ccw;
  };

  const std::string& self_name() const { return self_name_; }
  const OverlayParams& params() const { return params_; }

  const LevelEntry& level(int h) const { return levels_[h]; }
  int num_levels() const { return static_cast<int>(levels_.size()); }

  const std::vector<NodeRef>& leaf_cw() const { return leaf_cw_; }
  const std::vector<NodeRef>& leaf_ccw() const { return leaf_ccw_; }

  // Sets the ring pointer at `h`. Invalid ref clears the slot.
  void SetLevel(int h, bool clockwise, const NodeRef& ref);

  // Offers a node as a leaf-set candidate; keeps the nearest leaf_set_half on
  // each side. Returns true if the leaf set changed.
  bool OfferLeaf(const NodeRef& ref);

  // Removes every pointer that references `host` (node failed or left).
  // Returns true if anything was removed.
  bool RemoveHost(HostId host);

  // All distinct hosts referenced anywhere in the table (ring levels + leaf
  // set): the routing neighbors the node pings (section 5). The node's ping
  // set adds the hosts its client pins (SkipNetNode::Pin).
  std::vector<HostId> DistinctNeighborHosts() const;
  // All distinct refs (deduplicated by host).
  std::vector<NodeRef> DistinctNeighbors() const;

  // Greedy clockwise next hop toward `dest`: among all known neighbors
  // strictly inside (self, dest], the one that makes the most progress.
  // Returns nullopt when the local node is the last hop (owner or dest).
  std::optional<NodeRef> NextHopTowards(const std::string& dest) const;

  // The known node nearest to self walking clockwise (or counter-
  // clockwise), from any ring level or the leaf set; nullopt if none. With
  // `beyond` set, only nodes that lie past that name on the walk count.
  std::optional<NodeRef> NearestNeighbor(bool clockwise, const std::string& beyond = "") const;

  // True if any pointer references `host`.
  bool HasNeighbor(HostId host) const;

  // Human-readable dump for tests and debugging.
  std::string DebugString() const;

 private:
  void ForEachRef(const std::function<void(const NodeRef&)>& fn) const;

  std::string self_name_;
  OverlayParams params_;
  std::vector<LevelEntry> levels_;
  // Sorted by circular proximity to self: [0] is the nearest.
  std::vector<NodeRef> leaf_cw_;
  std::vector<NodeRef> leaf_ccw_;
};

}  // namespace fuse

#endif  // FUSE_OVERLAY_ROUTING_TABLE_H_
