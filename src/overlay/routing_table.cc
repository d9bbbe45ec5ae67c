#include "overlay/routing_table.h"

#include <algorithm>
#include <functional>
#include <unordered_set>

#include "common/logging.h"

namespace fuse {

void RoutingTable::SetLevel(int h, bool clockwise, const NodeRef& ref) {
  FUSE_CHECK(h >= 0 && h < num_levels()) << "level out of range";
  if (clockwise) {
    levels_[h].cw = ref;
  } else {
    levels_[h].ccw = ref;
  }
}

bool RoutingTable::OfferLeaf(const NodeRef& ref) {
  if (!ref.valid() || ref.name == self_name_) {
    return false;
  }
  auto offer_side = [&](std::vector<NodeRef>& side, bool cw) -> bool {
    // `side` is sorted nearest-first in walking order from self.
    for (const auto& existing : side) {
      if (existing.host == ref.host) {
        return false;
      }
    }
    // Find insertion point: ref belongs before the first entry that is
    // further from self (in this side's walking direction).
    size_t pos = side.size();
    for (size_t i = 0; i < side.size(); ++i) {
      const bool ref_nearer = cw ? CwStrictlyBetween(ref.name, self_name_, side[i].name)
                                 : CwStrictlyBetween(ref.name, side[i].name, self_name_);
      if (ref_nearer) {
        pos = i;
        break;
      }
    }
    const size_t cap = static_cast<size_t>(params_.leaf_set_half);
    if (pos >= cap) {
      return false;  // further than all kept entries
    }
    side.insert(side.begin() + static_cast<long>(pos), ref);
    if (side.size() > cap) {
      side.resize(cap);
    }
    return true;
  };
  bool changed = offer_side(leaf_cw_, /*cw=*/true);
  changed |= offer_side(leaf_ccw_, /*cw=*/false);
  return changed;
}

bool RoutingTable::RemoveHost(HostId host) {
  bool removed = false;
  for (auto& entry : levels_) {
    if (entry.cw.valid() && entry.cw.host == host) {
      entry.cw.Reset();
      removed = true;
    }
    if (entry.ccw.valid() && entry.ccw.host == host) {
      entry.ccw.Reset();
      removed = true;
    }
  }
  auto purge = [&](std::vector<NodeRef>& side) {
    const auto it = std::remove_if(side.begin(), side.end(),
                                   [&](const NodeRef& r) { return r.host == host; });
    if (it != side.end()) {
      side.erase(it, side.end());
      removed = true;
    }
  };
  purge(leaf_cw_);
  purge(leaf_ccw_);
  return removed;
}

void RoutingTable::ForEachRef(const std::function<void(const NodeRef&)>& fn) const {
  for (const auto& entry : levels_) {
    if (entry.cw.valid()) {
      fn(entry.cw);
    }
    if (entry.ccw.valid()) {
      fn(entry.ccw);
    }
  }
  for (const auto& r : leaf_cw_) {
    fn(r);
  }
  for (const auto& r : leaf_ccw_) {
    fn(r);
  }
}

std::vector<HostId> RoutingTable::DistinctNeighborHosts() const {
  std::unordered_set<HostId> seen;
  std::vector<HostId> out;
  ForEachRef([&](const NodeRef& r) {
    if (seen.insert(r.host).second) {
      out.push_back(r.host);
    }
  });
  return out;
}

std::vector<NodeRef> RoutingTable::DistinctNeighbors() const {
  std::unordered_set<HostId> seen;
  std::vector<NodeRef> out;
  ForEachRef([&](const NodeRef& r) {
    if (seen.insert(r.host).second) {
      out.push_back(r);
    }
  });
  return out;
}

bool RoutingTable::HasNeighbor(HostId host) const {
  bool found = false;
  ForEachRef([&](const NodeRef& r) { found = found || r.host == host; });
  return found;
}

std::optional<NodeRef> RoutingTable::NearestNeighbor(bool clockwise,
                                                     const std::string& beyond) const {
  const NodeRef* best = nullptr;
  ForEachRef([&](const NodeRef& r) {
    if (r.name == self_name_) {
      return;
    }
    if (!beyond.empty() && !(clockwise ? CwStrictlyBetween(beyond, self_name_, r.name)
                                       : CwStrictlyBetween(beyond, r.name, self_name_))) {
      return;
    }
    if (best == nullptr || (clockwise ? CwStrictlyBetween(r.name, self_name_, best->name)
                                      : CwStrictlyBetween(r.name, best->name, self_name_))) {
      best = &r;
    }
  });
  if (best == nullptr) {
    return std::nullopt;
  }
  return *best;
}

std::optional<NodeRef> RoutingTable::NextHopTowards(const std::string& dest) const {
  if (dest == self_name_) {
    return std::nullopt;
  }
  // Greedy: the candidate in (self, dest] furthest clockwise from self.
  const NodeRef* best = nullptr;
  ForEachRef([&](const NodeRef& r) {
    if (r.name == self_name_) {
      return;
    }
    if (!CwInInterval(r.name, self_name_, dest)) {
      return;  // would overshoot (or is behind us)
    }
    if (best == nullptr || CwStrictlyBetween(best->name, self_name_, r.name) ||
        (best->name == r.name && best->host != r.host && r.name == dest)) {
      best = &r;
    }
  });
  if (best == nullptr) {
    return std::nullopt;
  }
  return *best;
}

std::string RoutingTable::DebugString() const {
  std::string out = "RoutingTable(" + self_name_ + ")\n";
  for (int h = 0; h < num_levels(); ++h) {
    const auto& e = levels_[h];
    if (!e.cw.valid() && !e.ccw.valid()) {
      continue;
    }
    out += "  L" + std::to_string(h) + " cw=" + (e.cw.valid() ? e.cw.name : "-") +
           " ccw=" + (e.ccw.valid() ? e.ccw.name : "-") + "\n";
  }
  out += "  leaf_cw:";
  for (const auto& r : leaf_cw_) {
    out += " " + r.name;
  }
  out += "\n  leaf_ccw:";
  for (const auto& r : leaf_ccw_) {
    out += " " + r.name;
  }
  out += "\n";
  return out;
}

}  // namespace fuse
