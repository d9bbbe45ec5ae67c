// GroupService: an application-level group facade over the ClusterHarness
// node-op vocabulary (CreateGroupInContext / WatchGroupMemberInContext /
// SignalGroupInContext), sized for millions of concurrent FUSE groups.
//
// The paper's applications (section 4) each maintain a table of live groups
// and a callback per group — exactly the bookkeeping every FUSE application
// re-implements. This service centralizes it:
//   * a sharded, open-addressed record table (Flat128Map per shard) so a
//     million 128-bit group ids index densely instead of through
//     unordered_map nodes;
//   * an admission-windowed create pipeline: creates are queued and issued
//     at most `max_inflight_creates` at a time, so driving 10^6 creates does
//     not flood every root's transport at once;
//   * one-shot failure watches that unregister the record and forward to the
//     application callback with the service's own accounting.
//
// Deployment-agnostic by construction: everything goes through the harness
// vocabulary, so the same service runs on the simulator and (via
// ProcessCluster's overrides) worker processes.
// Call Create/Watch/Signal from the driving thread (outside the protocol
// context); completions are Defer'ed by the harness back onto that thread.
#ifndef FUSE_SERVICE_GROUP_SERVICE_H_
#define FUSE_SERVICE_GROUP_SERVICE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/flat_map.h"
#include "common/status.h"
#include "fuse/fuse_id.h"
#include "runtime/cluster.h"

namespace fuse {

struct GroupServiceOptions {
  // Creates admitted to the cluster concurrently. The default keeps a 16-node
  // sim busy without flooding any single root's connection table.
  int max_inflight_creates = 512;
  // Record-table shards (power of two). Sharding bounds the per-table rehash
  // pause: growing one shard of a million-group table moves 1/shards of it.
  int table_shards = 16;
};

class GroupService {
 public:
  struct Counters {
    uint64_t creates_requested = 0;
    uint64_t creates_ok = 0;
    uint64_t creates_failed = 0;
    uint64_t signals = 0;
    uint64_t notifications = 0;  // watch callbacks fired
  };

  // Per-group record. Members are node indices (not NodeRefs): the harness
  // already owns the index -> ref mapping, and four bytes per member is what
  // keeps a million records dense.
  struct Record {
    uint32_t root = 0;
    std::vector<uint32_t> members;
  };

  explicit GroupService(ClusterHarness& cluster, GroupServiceOptions options = {});

  GroupService(const GroupService&) = delete;
  GroupService& operator=(const GroupService&) = delete;

  // Queues a group create rooted at node `root` spanning `members` (root
  // included or not — the FUSE layer drops the root from its own member
  // list). `done` fires on the driving thread after the create resolves;
  // nullptr is fine. Call Pump() or Drain() to make progress.
  void Create(size_t root, std::vector<size_t> members,
              std::function<void(const Status&, FuseId)> done = nullptr);

  // Issues queued creates up to the admission window. Returns the number
  // newly admitted. Called implicitly by Drain.
  size_t Pump();

  // Runs the cluster until every queued and in-flight create resolved, or
  // `bound` elapses. Returns true when fully drained.
  bool Drain(Duration bound);

  // One-shot failure watch: `on_fire` runs (on the driving thread) the first
  // time node `member`'s FUSE layer reports the group failed; the service
  // drops its record for the id at that point.
  void Watch(size_t member, FuseId id, std::function<void(FuseId)> on_fire);

  // Explicit failure signal from `node` (paper 3.4).
  void Signal(size_t node, FuseId id);

  const Record* FindLive(FuseId id) const;
  size_t NumLive() const;
  // fn(id, record) over every live group; must not call back into the
  // service.
  void ForEachLive(const std::function<void(FuseId, const Record&)>& fn) const;

  size_t NumPendingCreates() const { return queue_.size() + inflight_; }
  const Counters& counters() const { return counters_; }

  // Estimated heap bytes of the service's own tables (records + queue); the
  // FUSE-layer cost lives in FuseNode::ApproxGroupBytes.
  size_t ApproxServiceBytes() const;

 private:
  struct PendingCreate {
    uint32_t root;
    std::vector<uint32_t> members;
    std::function<void(const Status&, FuseId)> done;
  };

  Flat128Map<Record>& ShardFor(FuseId id);
  const Flat128Map<Record>& ShardFor(FuseId id) const;
  void Admit(PendingCreate&& pc);

  ClusterHarness& cluster_;
  GroupServiceOptions options_;
  std::deque<PendingCreate> queue_;
  size_t inflight_ = 0;
  std::vector<Flat128Map<Record>> shards_;
  Counters counters_;
  // Keeps Defer'ed completions from touching a destroyed service: they hold
  // the token weakly and bail once the service is gone.
  std::shared_ptr<GroupService*> alive_;
};

}  // namespace fuse

#endif  // FUSE_SERVICE_GROUP_SERVICE_H_
