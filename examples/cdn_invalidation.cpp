// CDN update propagation with FUSE fate-sharing (paper section 4.1).
//
// A content delivery network replicates documents to per-document replica
// sets and pushes updates to them. Instead of per-tree heartbeats, each
// document's replica set shares fate through one FUSE group: if any replica
// (or the path to it) fails, every replica hears the notification, drops its
// copy, and the origin re-replicates onto a fresh set — the paper's
// "garbage collect with FUSE, then retry with new state" design pattern.
//
// The group bookkeeping every FUSE application needs (the table of live
// groups, a create pipeline, per-member failure watches) goes through
// GroupService — the same facade bench_groups_1m drives at 1M groups.
//
// Run: ./build/examples/cdn_invalidation
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "runtime/sim_cluster.h"
#include "service/group_service.h"

using namespace fuse;

namespace {

struct Document {
  std::string name;
  int version = 1;
  std::vector<size_t> replicas;
  FuseId group;
  int replications = 0;
};

class Cdn {
 public:
  Cdn(SimCluster& cluster, GroupService& svc, size_t origin)
      : cluster_(cluster), svc_(svc), origin_(origin) {}

  void ReplicateDocument(const std::string& name) {
    docs_[name].name = name;
    PlaceReplicas(name);
    Settle();
  }

  // Queues one placement round: a create through the service, whose
  // completion wires the failure watches. A failed create (or a later FUSE
  // notification) queues another round; Settle() drains whatever is queued.
  void PlaceReplicas(const std::string& name) {
    Document& doc = docs_[name];
    doc.replications++;
    doc.replicas = cluster_.PickLiveNodes(3);
    svc_.Create(origin_, doc.replicas, [this, name](const Status& s, FuseId id) {
      Document& d = docs_[name];
      if (!s.ok()) {
        std::printf("  [%s] replication failed (%s); retrying\n", name.c_str(),
                    s.ToString().c_str());
        PlaceReplicas(name);
        return;
      }
      d.group = id;
      // The origin garbage collects and re-replicates on failure.
      svc_.Watch(origin_, id, [this, name](FuseId) {
        std::printf("  [%s] FUSE notification at origin: replica set lost at t=%.0fs; "
                    "re-replicating\n",
                    name.c_str(), cluster_.sim().Now().ToSecondsF());
        PlaceReplicas(name);
      });
      // Each replica garbage collects its copy on failure.
      for (size_t r : d.replicas) {
        svc_.Watch(r, id, [name, r](FuseId) {
          std::printf("  [%s] replica on node %zu dropped its copy\n", name.c_str(), r);
        });
      }
      std::printf("  [%s] v%d replicated to nodes {%zu, %zu, %zu}, fuse id %s\n",
                  name.c_str(), d.version, d.replicas[0], d.replicas[1], d.replicas[2],
                  id.ToString().c_str());
    });
  }

  // Runs queued placements (including re-replications a notification queued
  // mid-simulation) to completion.
  void Settle() {
    if (!svc_.Drain(Duration::Minutes(5))) {
      std::printf("  warning: placements still pending at drain bound\n");
    }
  }

  // Pushing an update is just application traffic; FUSE guarantees the
  // replica set either is intact or everyone has heard otherwise.
  void PushUpdate(const std::string& name) {
    Document& doc = docs_[name];
    doc.version++;
    std::printf("  [%s] pushed v%d to %zu replicas\n", name.c_str(), doc.version,
                doc.replicas.size());
  }

  const Document& doc(const std::string& name) { return docs_[name]; }

 private:
  SimCluster& cluster_;
  GroupService& svc_;
  size_t origin_;
  std::map<std::string, Document> docs_;
};

}  // namespace

int main() {
  std::printf("== CDN update propagation guarded by FUSE groups ==\n\n");

  ClusterConfig config;
  config.num_nodes = 40;
  config.seed = 11;
  config.cost = CostModel::Simulator();
  SimCluster cluster(config);
  cluster.Build();

  const size_t origin = 0;
  GroupService svc(cluster);
  Cdn cdn(cluster, svc, origin);
  std::printf("replicating three documents from origin node %zu:\n", origin);
  cdn.ReplicateDocument("/index.html");
  cdn.ReplicateDocument("/logo.png");
  cdn.ReplicateDocument("/app.js");
  std::printf("  service: %zu live groups, %zu creates issued\n", svc.NumLive(),
              static_cast<size_t>(svc.counters().creates_ok));

  std::printf("\npushing updates:\n");
  cdn.PushUpdate("/index.html");
  cdn.PushUpdate("/app.js");

  // Fail one replica of /index.html; its group burns, the origin re-places.
  const size_t victim = cdn.doc("/index.html").replicas[1];
  std::printf("\ncrashing replica node %zu of /index.html at t=%.0fs ...\n", victim,
              cluster.sim().Now().ToSecondsF());
  cluster.Crash(victim);
  cluster.sim().RunFor(Duration::Minutes(6));
  cdn.Settle();

  std::printf("\nfinal state:\n");
  int failures = 0;
  for (const char* name : {"/index.html", "/logo.png", "/app.js"}) {
    const auto& d = cdn.doc(name);
    std::printf("  %-12s v%d, %d placement round(s), replicas {%zu, %zu, %zu}\n", name,
                d.version, d.replications, d.replicas[0], d.replicas[1], d.replicas[2]);
    if (svc.FindLive(d.group) == nullptr) {
      std::printf("  %-12s has no live group — placement did not recover\n", name);
      failures++;
    }
  }
  if (cdn.doc("/index.html").replications < 2) {
    std::printf("error: /index.html was never re-replicated after the crash\n");
    failures++;
  }
  std::printf("\nnote: /logo.png and /app.js were untouched — failure scope is the group,\n");
  std::printf("not the node (per-document fate-sharing, paper section 4.1).\n");
  return failures == 0 ? 0 : 1;
}
