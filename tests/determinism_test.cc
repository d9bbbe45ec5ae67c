// Determinism regression tripwire: the whole simulator — topology build,
// overlay joins, FUSE group creation, crash-driven notifications — must be a
// pure function of the seed. Two runs with the same seed must produce
// byte-identical event traces (including notification timestamps); runs with
// different seeds must diverge. Every Fig. 7-12 reproduction depends on this.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "fuse/fuse_id.h"
#include "fuse/fuse_node.h"
#include "net/network.h"
#include "overlay/skipnet_node.h"
#include "runtime/sim_cluster.h"
#include "sim/event_queue.h"
#include "transport/tcp_model.h"

namespace fuse {
namespace {

// Builds a small cluster, creates FUSE groups, crashes nodes mid-run, and
// records everything observable into one trace string: each notification
// delivery (virtual timestamp, observer node, group id), final per-category
// message counts, executed event counts, and the final clock.
std::string RunScenario(uint64_t seed) {
  std::string trace;
  char line[160];

  ClusterConfig cfg;
  cfg.num_nodes = 24;
  cfg.seed = seed;
  cfg.topology.num_as = 30;
  cfg.cost = CostModel::Simulator();
  SimCluster cluster(cfg);
  cluster.Build();

  // Three groups rooted at distinct nodes, each spanning 5 random members.
  const size_t roots[] = {0, 5, 11};
  std::vector<FuseId> ids;
  for (size_t root : roots) {
    std::vector<size_t> members = cluster.PickLiveNodes(6);
    // Make sure the root is not among its own member list.
    std::vector<NodeRef> refs;
    for (size_t m : members) {
      if (m != root && refs.size() < 5) {
        refs.push_back(cluster.RefOf(m));
      }
    }
    cluster.node(root).fuse()->CreateGroup(refs, [&, root](const Status& s, FuseId id) {
      std::snprintf(line, sizeof(line), "create t=%lld root=%zu ok=%d id=%s\n",
                    static_cast<long long>(cluster.sim().Now().ToMicros()), root, s.ok(),
                    id.ToString().c_str());
      trace += line;
      if (s.ok()) {
        ids.push_back(id);
      }
    });
    cluster.sim().RunFor(Duration::Seconds(30));
  }

  // Every live node registers a handler for every group it participates in.
  for (const FuseId& id : ids) {
    for (size_t i = 0; i < cluster.size(); ++i) {
      if (!cluster.IsUp(i) || !cluster.node(i).fuse()->IsParticipant(id)) {
        continue;
      }
      cluster.node(i).fuse()->RegisterFailureHandler(id, [&trace, &line, &cluster, i](FuseId gid) {
        std::snprintf(line, sizeof(line), "notify t=%lld node=%zu id=%s\n",
                      static_cast<long long>(cluster.sim().Now().ToMicros()), i,
                      gid.ToString().c_str());
        trace += line;
      });
    }
  }

  // Crash two nodes (a group root and a likely member) and one explicit
  // signal — all three of the paper's failure classes feed the trace.
  cluster.sim().RunFor(Duration::Seconds(10));
  cluster.Crash(5);
  cluster.sim().RunFor(Duration::Minutes(3));
  cluster.Crash(3);
  cluster.sim().RunFor(Duration::Minutes(3));
  if (!ids.empty() && cluster.IsUp(11)) {
    cluster.node(11).fuse()->SignalFailure(ids.back());
  }
  cluster.sim().RunFor(Duration::Minutes(3));

  // Global accounting: any divergence in message flow or scheduling shows up.
  for (int c = 0; c < static_cast<int>(MsgCategory::kCount); ++c) {
    const auto cat = static_cast<MsgCategory>(c);
    std::snprintf(line, sizeof(line), "msgs %s n=%llu bytes=%llu\n", MsgCategoryName(cat),
                  static_cast<unsigned long long>(cluster.sim().metrics().MessageCount(cat)),
                  static_cast<unsigned long long>(cluster.sim().metrics().ByteCount(cat)));
    trace += line;
  }
  std::snprintf(line, sizeof(line), "events=%llu now=%lld live=%zu\n",
                static_cast<unsigned long long>(cluster.sim().queue().ExecutedCount()),
                static_cast<long long>(cluster.sim().Now().ToMicros()), cluster.NumLiveNodes());
  trace += line;
  return trace;
}

// For comparing traces across builds (e.g. before/after a transport
// refactor; scripts/same_schedule.sh), writes `trace` to the file the
// environment variable `var` names, if it is set.
void DumpTrace(const char* var, const std::string& trace) {
  if (const char* out = std::getenv(var); out != nullptr) {
    if (FILE* f = std::fopen(out, "w"); f != nullptr) {
      std::fputs(trace.c_str(), f);
      std::fclose(f);
    }
  }
}

TEST(DeterminismTest, SameSeedSameTrace) {
  const std::string a = RunScenario(0xF00D);
  const std::string b = RunScenario(0xF00D);
  DumpTrace("FUSE_TRACE_OUT", a);
  EXPECT_EQ(a, b) << "simulation is not a pure function of its seed";
  // The scenario must actually exercise the notification path.
  EXPECT_NE(a.find("create "), std::string::npos);
  EXPECT_NE(a.find("notify "), std::string::npos);
}

TEST(DeterminismTest, DifferentSeedDifferentTrace) {
  const std::string a = RunScenario(1);
  const std::string b = RunScenario(2);
  EXPECT_NE(a, b) << "seed is not actually feeding the simulation";
}

// Golden trace for the transport fast path: a fixed scenario driven directly
// through SimFabric — handshakes, warm in-order sends, loss-driven
// retransmission and backoff, a blocked pair breaking the connection, a
// crash with one active connection, and restart with a fresh incarnation.
// The expected string below was generated from the pre-pooling/pre-PayloadBuf
// implementation; any fast-path change (buffer sharing, send-state pooling,
// dense tables) must keep it byte-identical: same RNG draw order, same event
// schedule, same delivery and callback instants. On mismatch the actual
// trace is printed so it can be diffed (or re-blessed deliberately).
std::string RunTransportScenario() {
  std::string trace;
  char line[96];

  TopologyConfig tcfg;
  tcfg.num_as = 30;
  Simulation sim(0xBEEF);
  SimNetwork net{Topology::Generate(tcfg, sim.rng())};
  SimFabric fabric(sim, net, CostModel::Cluster());
  const HostId a = net.AddHost(sim.rng());
  const HostId b = net.AddHost(sim.rng());
  const HostId c = net.AddHost(sim.rng());

  for (const HostId h : {a, b, c}) {
    fabric.TransportFor(h)->RegisterHandler(
        msgtype::kTest, [&trace, &line, &sim, h](const WireMessage& m) {
          std::snprintf(line, sizeof(line), "rx t=%lld %llu<-%llu n=%zu b0=%d\n",
                        static_cast<long long>(sim.Now().ToMicros()),
                        static_cast<unsigned long long>(h.value),
                        static_cast<unsigned long long>(m.from.value), m.payload.size(),
                        m.payload.empty() ? -1 : static_cast<int>(m.payload[0]));
          trace += line;
        });
  }
  int tag = 0;
  auto send = [&](HostId from, HostId to, std::vector<uint8_t> payload) {
    WireMessage m;
    m.to = to;
    m.type = msgtype::kTest;
    m.category = MsgCategory::kApp;
    m.payload = std::move(payload);
    const int t = tag++;
    fabric.TransportFor(from)->Send(std::move(m), [&trace, &line, &sim, t](const Status& s) {
      std::snprintf(line, sizeof(line), "cb t=%lld tag=%d ok=%d\n",
                    static_cast<long long>(sim.Now().ToMicros()), t, s.ok());
      trace += line;
    });
  };

  // Cold connection + a warm in-order burst (serialized by send overhead).
  send(a, b, {1});
  send(a, b, {2});
  send(a, b, {3});
  sim.RunFor(Duration::Seconds(10));
  // Retransmission under loss: RNG draws per attempt, backoff timers.
  net.SetPerLinkLossRate(0.03);
  for (uint8_t i = 10; i < 16; ++i) {
    send(a, b, {i});
  }
  sim.RunFor(Duration::Minutes(5));
  net.SetPerLinkLossRate(0.0);
  // Reverse direction on the cached connection + a payload past any inline
  // buffer + a fresh pair (c,b).
  send(b, a, std::vector<uint8_t>(100, 0x5a));
  send(c, b, {42});
  sim.RunFor(Duration::Seconds(30));
  // Blocked pair: retransmits until the connection breaks.
  net.faults().BlockPair(a, b);
  send(a, b, {77});
  sim.RunFor(Duration::Minutes(10));
  net.faults().UnblockPair(a, b);
  // Crash c mid-send: exactly one connection (b,c) is affected.
  send(c, b, {43});
  fabric.CrashHost(c);
  send(a, c, {44});  // to a dead host: unreachable
  sim.RunFor(Duration::Minutes(10));
  fabric.RestartHost(c);
  fabric.TransportFor(c)->RegisterHandler(msgtype::kTest,
                                          [&trace, &line, &sim](const WireMessage& m) {
                                            std::snprintf(
                                                line, sizeof(line), "rx2 t=%lld b0=%d\n",
                                                static_cast<long long>(sim.Now().ToMicros()),
                                                static_cast<int>(m.payload[0]));
                                            trace += line;
                                          });
  send(c, b, {45});
  send(a, c, {46});
  sim.RunFor(Duration::Minutes(5));

  for (int cat = 0; cat < static_cast<int>(MsgCategory::kCount); ++cat) {
    const auto mc = static_cast<MsgCategory>(cat);
    if (sim.metrics().MessageCount(mc) == 0) {
      continue;
    }
    std::snprintf(line, sizeof(line), "msgs %s n=%llu bytes=%llu\n", MsgCategoryName(mc),
                  static_cast<unsigned long long>(sim.metrics().MessageCount(mc)),
                  static_cast<unsigned long long>(sim.metrics().ByteCount(mc)));
    trace += line;
  }
  std::snprintf(line, sizeof(line), "events=%llu now=%lld\n",
                static_cast<unsigned long long>(sim.queue().ExecutedCount()),
                static_cast<long long>(sim.Now().ToMicros()));
  trace += line;
  return trace;
}

TEST(DeterminismTest, GoldenTransportFastPathTrace) {
  const std::string trace = RunTransportScenario();
  const std::string golden =
      "rx t=172602 1<-0 n=1 b0=1\n"
      "rx t=176502 1<-0 n=1 b0=2\n"
      "rx t=180402 1<-0 n=1 b0=3\n"
      "cb t=228836 tag=0 ok=1\n"
      "cb t=232736 tag=1 ok=1\n"
      "cb t=236636 tag=2 ok=1\n"
      "cb t=10120268 tag=4 ok=1\n"
      "cb t=11124168 tag=5 ok=1\n"
      "cb t=11128068 tag=6 ok=1\n"
      "cb t=11135868 tag=8 ok=1\n"
      "rx t=13060134 1<-0 n=1 b0=10\n"
      "rx t=13060134 1<-0 n=1 b0=11\n"
      "rx t=13060134 1<-0 n=1 b0=12\n"
      "rx t=13060134 1<-0 n=1 b0=13\n"
      "rx t=13060134 1<-0 n=1 b0=14\n"
      "rx t=13060134 1<-0 n=1 b0=15\n"
      "cb t=13116368 tag=3 ok=1\n"
      "cb t=17131968 tag=7 ok=1\n"
      "rx t=310060134 0<-1 n=100 b0=90\n"
      "cb t=310116368 tag=9 ok=1\n"
      "rx t=310147252 1<-2 n=1 b0=42\n"
      "cb t=310195036 tag=10 ok=1\n"
      "cb t=403003900 tag=11 ok=0\n"
      "cb t=940000000 tag=12 ok=0\n"
      "cb t=971000000 tag=13 ok=0\n"
      "rx2 t=1540035880 b0=46\n"
      "cb t=1540046540 tag=15 ok=1\n"
      "rx t=1540147252 1<-2 n=1 b0=45\n"
      "cb t=1540195036 tag=14 ok=1\n"
      "msgs app n=27 bytes=1422\n"
      "msgs transport_control n=13 bytes=624\n"
      "events=64 now=1840000000\n";
  if (trace != golden) {
    std::fprintf(stderr, "--- actual transport trace ---\n%s--- end ---\n", trace.c_str());
  }
  EXPECT_EQ(trace, golden);
}

// Golden trace for FUSE's per-link bookkeeping at a size where overlay
// peers carry dozens of group IDs: 24 nodes, 3 per machine, 200 groups of 4
// drawn from the 12 even-numbered nodes (a median of 12 and up to 31 IDs
// per (node, peer) link). A phantom InstallChecking (a group the sender holds no
// state for) forces a digest mismatch, so a reconcile exchanges full link
// lists and tears the unshared link down after the grace period; then one
// machine crashes. The trace records every upcall (create results and
// failure notifications: sim time, node, group ordinal) and the per-type
// message counts, reconcile bytes included. The expected string was
// generated before the per-peer link table replaced the ordered ID set;
// any change to how links are stored must keep it byte-identical.
std::string RunGroupLinkTableScenario() {
  std::string trace;
  char line[96];

  ClusterConfig cfg;
  cfg.num_nodes = 24;
  cfg.hosts_per_machine = 3;
  cfg.seed = 0x11AB;
  cfg.topology.num_as = 30;
  cfg.cost = CostModel::Simulator();
  SimCluster cluster(cfg);
  cluster.Build();
  auto now_us = [&cluster] { return static_cast<long long>(cluster.sim().Now().ToMicros()); };

  constexpr size_t kGroups = 200;
  std::vector<FuseId> ids(kGroups);
  std::vector<std::vector<size_t>> members(kGroups);
  for (size_t g = 0; g < kGroups; ++g) {
    for (size_t k : cluster.PickLiveNodes(4, 12)) {
      members[g].push_back(2 * k);
    }
    const size_t root = members[g][0];
    cluster.node(root).fuse()->CreateGroup(
        cluster.RefsOf(members[g]), [&, g, root](const Status& s, FuseId id) {
          std::snprintf(line, sizeof(line), "create t=%lld node=%zu g=%zu ok=%d\n", now_us(),
                        root, g, s.ok());
          trace += line;
          ids[g] = id;
        });
    if (g % 40 == 39) {
      cluster.sim().RunFor(Duration::Seconds(2));
    }
  }
  cluster.sim().RunFor(Duration::Seconds(60));

  for (size_t g = 0; g < kGroups; ++g) {
    for (size_t m : members[g]) {
      if (!cluster.node(m).fuse()->IsParticipant(ids[g])) {
        continue;
      }
      cluster.node(m).fuse()->RegisterFailureHandler(ids[g], [&, g, m](FuseId) {
        std::snprintf(line, sizeof(line), "notify t=%lld node=%zu g=%zu\n", now_us(), m, g);
        trace += line;
      });
    }
  }
  size_t links = 0;
  for (size_t i = 0; i < cluster.size(); ++i) {
    links += cluster.node(i).fuse()->NumMonitoredLinks();
  }
  std::snprintf(line, sizeof(line), "monitored_links=%zu\n", links);
  trace += line;

  // The phantom: node 1 routes an InstallChecking for group 0, which lives
  // elsewhere, so the first hop monitors a link node 1 does not.
  size_t sender = 1;
  while (cluster.node(sender).fuse()->HasLiveGroup(ids[0])) {
    ++sender;
  }
  Writer w;
  WriteFuseId(w, ids[0]);
  w.PutU32(0);
  WriteNodeRef(w, cluster.RefOf(sender));
  cluster.node(sender).overlay()->RouteByName(cluster.RefOf(members[0][0]).name,
                                              FuseNode::kRoutedTag, w.Take(),
                                              MsgCategory::kFuseInstallChecking);
  cluster.sim().RunFor(Duration::Minutes(2));

  cluster.CrashMachine(1);
  cluster.sim().RunFor(Duration::Minutes(6));

  for (int c = 0; c < static_cast<int>(MsgCategory::kCount); ++c) {
    const auto cat = static_cast<MsgCategory>(c);
    std::snprintf(line, sizeof(line), "msgs %s n=%llu bytes=%llu\n", MsgCategoryName(cat),
                  static_cast<unsigned long long>(cluster.sim().metrics().MessageCount(cat)),
                  static_cast<unsigned long long>(cluster.sim().metrics().ByteCount(cat)));
    trace += line;
  }
  std::snprintf(line, sizeof(line), "events=%llu now=%lld live=%zu\n",
                static_cast<unsigned long long>(cluster.sim().queue().ExecutedCount()), now_us(),
                cluster.NumLiveNodes());
  trace += line;
  return trace;
}

TEST(DeterminismTest, GoldenGroupLinkTableTrace) {
  const std::string trace = RunGroupLinkTableScenario();
  const std::string golden =
      "create t=96152513 node=2 g=20 ok=1\n"
      "create t=96194297 node=22 g=4 ok=1\n"
      "create t=96195137 node=0 g=12 ok=1\n"
      "create t=96195137 node=2 g=30 ok=1\n"
      "create t=96195979 node=20 g=14 ok=1\n"
      "create t=96199255 node=2 g=26 ok=1\n"
      "create t=96199727 node=20 g=28 ok=1\n"
      "create t=96211959 node=10 g=1 ok=1\n"
      "create t=96211959 node=10 g=21 ok=1\n"
      "create t=96217667 node=10 g=15 ok=1\n"
      "create t=96225295 node=4 g=23 ok=1\n"
      "create t=96225295 node=20 g=36 ok=1\n"
      "create t=96228983 node=4 g=11 ok=1\n"
      "create t=96228983 node=4 g=35 ok=1\n"
      "create t=96236921 node=22 g=24 ok=1\n"
      "create t=96238157 node=12 g=13 ok=1\n"
      "create t=96238157 node=8 g=16 ok=1\n"
      "create t=96238157 node=6 g=29 ok=1\n"
      "create t=96238157 node=14 g=31 ok=1\n"
      "create t=96241039 node=22 g=10 ok=1\n"
      "create t=96241039 node=6 g=19 ok=1\n"
      "create t=96241039 node=6 g=38 ok=1\n"
      "create t=96242351 node=18 g=7 ok=1\n"
      "create t=96242351 node=14 g=37 ok=1\n"
      "create t=96243865 node=14 g=5 ok=1\n"
      "create t=96243865 node=4 g=8 ok=1\n"
      "create t=96243865 node=4 g=22 ok=1\n"
      "create t=96243865 node=4 g=25 ok=1\n"
      "create t=96243865 node=4 g=32 ok=1\n"
      "create t=96246039 node=14 g=9 ok=1\n"
      "create t=96246039 node=14 g=17 ok=1\n"
      "create t=96246469 node=8 g=0 ok=1\n"
      "create t=96246469 node=18 g=2 ok=1\n"
      "create t=96246469 node=18 g=6 ok=1\n"
      "create t=96246469 node=20 g=18 ok=1\n"
      "create t=96246469 node=8 g=27 ok=1\n"
      "create t=96246469 node=20 g=34 ok=1\n"
      "create t=96246469 node=6 g=39 ok=1\n"
      "create t=96250157 node=6 g=3 ok=1\n"
      "create t=96250157 node=6 g=33 ok=1\n"
      "create t=98195187 node=10 g=63 ok=1\n"
      "create t=98199255 node=2 g=55 ok=1\n"
      "create t=98199255 node=2 g=59 ok=1\n"
      "create t=98199255 node=2 g=60 ok=1\n"
      "create t=98199255 node=0 g=69 ok=1\n"
      "create t=98199255 node=0 g=74 ok=1\n"
      "create t=98199255 node=2 g=76 ok=1\n"
      "create t=98199727 node=16 g=56 ok=1\n"
      "create t=98211959 node=10 g=46 ok=1\n"
      "create t=98211959 node=10 g=50 ok=1\n"
      "create t=98225295 node=18 g=45 ok=1\n"
      "create t=98225295 node=4 g=47 ok=1\n"
      "create t=98236921 node=14 g=72 ok=1\n"
      "create t=98238157 node=12 g=43 ok=1\n"
      "create t=98238157 node=6 g=58 ok=1\n"
      "create t=98238157 node=14 g=66 ok=1\n"
      "create t=98241039 node=6 g=42 ok=1\n"
      "create t=98241039 node=22 g=61 ok=1\n"
      "create t=98241039 node=6 g=70 ok=1\n"
      "create t=98242351 node=12 g=41 ok=1\n"
      "create t=98242351 node=20 g=52 ok=1\n"
      "create t=98242351 node=14 g=53 ok=1\n"
      "create t=98242351 node=18 g=57 ok=1\n"
      "create t=98242351 node=18 g=62 ok=1\n"
      "create t=98242351 node=12 g=65 ok=1\n"
      "create t=98242351 node=14 g=68 ok=1\n"
      "create t=98242351 node=12 g=71 ok=1\n"
      "create t=98242351 node=20 g=73 ok=1\n"
      "create t=98242351 node=18 g=78 ok=1\n"
      "create t=98243865 node=4 g=49 ok=1\n"
      "create t=98243865 node=4 g=77 ok=1\n"
      "create t=98243865 node=4 g=79 ok=1\n"
      "create t=98246039 node=14 g=40 ok=1\n"
      "create t=98246039 node=14 g=48 ok=1\n"
      "create t=98246039 node=16 g=67 ok=1\n"
      "create t=98246469 node=6 g=44 ok=1\n"
      "create t=98246469 node=6 g=54 ok=1\n"
      "create t=98246469 node=18 g=64 ok=1\n"
      "create t=98246469 node=18 g=75 ok=1\n"
      "create t=98250157 node=16 g=51 ok=1\n"
      "create t=100143395 node=22 g=80 ok=1\n"
      "create t=100148825 node=2 g=96 ok=1\n"
      "create t=100152513 node=2 g=113 ok=1\n"
      "create t=100194297 node=22 g=85 ok=1\n"
      "create t=100195137 node=0 g=104 ok=1\n"
      "create t=100195187 node=10 g=100 ok=1\n"
      "create t=100199255 node=0 g=81 ok=1\n"
      "create t=100199255 node=0 g=115 ok=1\n"
      "create t=100199667 node=10 g=99 ok=1\n"
      "create t=100199727 node=18 g=107 ok=1\n"
      "create t=100199727 node=16 g=117 ok=1\n"
      "create t=100211959 node=10 g=82 ok=1\n"
      "create t=100211959 node=10 g=84 ok=1\n"
      "create t=100211959 node=10 g=88 ok=1\n"
      "create t=100211959 node=10 g=106 ok=1\n"
      "create t=100217667 node=10 g=91 ok=1\n"
      "create t=100228983 node=16 g=95 ok=1\n"
      "create t=100236921 node=22 g=86 ok=1\n"
      "create t=100236921 node=22 g=89 ok=1\n"
      "create t=100236921 node=22 g=112 ok=1\n"
      "create t=100238157 node=12 g=98 ok=1\n"
      "create t=100238157 node=12 g=110 ok=1\n"
      "create t=100241039 node=8 g=87 ok=1\n"
      "create t=100241039 node=22 g=94 ok=1\n"
      "create t=100241039 node=22 g=101 ok=1\n"
      "create t=100242351 node=14 g=83 ok=1\n"
      "create t=100242351 node=12 g=105 ok=1\n"
      "create t=100242351 node=18 g=108 ok=1\n"
      "create t=100242351 node=18 g=116 ok=1\n"
      "create t=100242351 node=12 g=118 ok=1\n"
      "create t=100243865 node=4 g=90 ok=1\n"
      "create t=100243865 node=4 g=93 ok=1\n"
      "create t=100243865 node=4 g=103 ok=1\n"
      "create t=100243865 node=4 g=114 ok=1\n"
      "create t=100246039 node=14 g=109 ok=1\n"
      "create t=100246469 node=8 g=92 ok=1\n"
      "create t=100246469 node=20 g=111 ok=1\n"
      "create t=100246469 node=20 g=119 ok=1\n"
      "create t=100250157 node=16 g=97 ok=1\n"
      "create t=100250157 node=16 g=102 ok=1\n"
      "create t=102148765 node=0 g=136 ok=1\n"
      "create t=102148825 node=20 g=130 ok=1\n"
      "create t=102190549 node=22 g=143 ok=1\n"
      "create t=102195137 node=14 g=127 ok=1\n"
      "create t=102195979 node=10 g=125 ok=1\n"
      "create t=102195979 node=18 g=142 ok=1\n"
      "create t=102199255 node=0 g=128 ok=1\n"
      "create t=102199255 node=2 g=147 ok=1\n"
      "create t=102199255 node=0 g=153 ok=1\n"
      "create t=102199667 node=10 g=140 ok=1\n"
      "create t=102211959 node=8 g=121 ok=1\n"
      "create t=102224431 node=6 g=123 ok=1\n"
      "create t=102225295 node=4 g=139 ok=1\n"
      "create t=102236921 node=22 g=156 ok=1\n"
      "create t=102238157 node=6 g=122 ok=1\n"
      "create t=102238157 node=14 g=126 ok=1\n"
      "create t=102238157 node=14 g=151 ok=1\n"
      "create t=102238157 node=8 g=155 ok=1\n"
      "create t=102241039 node=22 g=120 ok=1\n"
      "create t=102241039 node=22 g=131 ok=1\n"
      "create t=102241039 node=22 g=133 ok=1\n"
      "create t=102241039 node=22 g=148 ok=1\n"
      "create t=102241039 node=22 g=159 ok=1\n"
      "create t=102242351 node=14 g=138 ok=1\n"
      "create t=102242351 node=12 g=141 ok=1\n"
      "create t=102242351 node=12 g=146 ok=1\n"
      "create t=102242351 node=20 g=149 ok=1\n"
      "create t=102242351 node=20 g=154 ok=1\n"
      "create t=102242351 node=14 g=158 ok=1\n"
      "create t=102243865 node=4 g=124 ok=1\n"
      "create t=102243865 node=14 g=134 ok=1\n"
      "create t=102243865 node=4 g=137 ok=1\n"
      "create t=102243865 node=4 g=145 ok=1\n"
      "create t=102246039 node=12 g=135 ok=1\n"
      "create t=102246469 node=18 g=132 ok=1\n"
      "create t=102250157 node=8 g=129 ok=1\n"
      "create t=102250157 node=8 g=144 ok=1\n"
      "create t=102250157 node=16 g=150 ok=1\n"
      "create t=102250157 node=8 g=152 ok=1\n"
      "create t=102250157 node=8 g=157 ok=1\n"
      "create t=104148765 node=2 g=199 ok=1\n"
      "create t=104195137 node=2 g=185 ok=1\n"
      "create t=104195979 node=10 g=194 ok=1\n"
      "create t=104199255 node=2 g=162 ok=1\n"
      "create t=104199255 node=2 g=177 ok=1\n"
      "create t=104199255 node=0 g=197 ok=1\n"
      "create t=104199667 node=10 g=182 ok=1\n"
      "create t=104199727 node=18 g=192 ok=1\n"
      "create t=104211959 node=10 g=174 ok=1\n"
      "create t=104211959 node=10 g=186 ok=1\n"
      "create t=104224431 node=4 g=163 ok=1\n"
      "create t=104225295 node=4 g=167 ok=1\n"
      "create t=104225295 node=18 g=176 ok=1\n"
      "create t=104228983 node=16 g=175 ok=1\n"
      "create t=104236921 node=22 g=173 ok=1\n"
      "create t=104236921 node=22 g=184 ok=1\n"
      "create t=104238157 node=14 g=164 ok=1\n"
      "create t=104238157 node=6 g=168 ok=1\n"
      "create t=104238157 node=14 g=171 ok=1\n"
      "create t=104241039 node=8 g=178 ok=1\n"
      "create t=104241039 node=6 g=179 ok=1\n"
      "create t=104242351 node=20 g=170 ok=1\n"
      "create t=104242351 node=12 g=181 ok=1\n"
      "create t=104242351 node=18 g=195 ok=1\n"
      "create t=104243865 node=4 g=165 ok=1\n"
      "create t=104243865 node=4 g=166 ok=1\n"
      "create t=104243865 node=4 g=172 ok=1\n"
      "create t=104243865 node=4 g=189 ok=1\n"
      "create t=104246039 node=14 g=161 ok=1\n"
      "create t=104246039 node=12 g=180 ok=1\n"
      "create t=104246039 node=16 g=188 ok=1\n"
      "create t=104246469 node=6 g=160 ok=1\n"
      "create t=104246469 node=18 g=187 ok=1\n"
      "create t=104246469 node=8 g=190 ok=1\n"
      "create t=104246469 node=18 g=191 ok=1\n"
      "create t=104246469 node=6 g=193 ok=1\n"
      "create t=104246469 node=20 g=196 ok=1\n"
      "create t=104246469 node=6 g=198 ok=1\n"
      "create t=104250157 node=8 g=169 ok=1\n"
      "create t=104250157 node=16 g=183 ok=1\n"
      "monitored_links=1458\n"
      "notify t=360774305 node=6 g=123\n"
      "notify t=360774305 node=6 g=90\n"
      "notify t=360774305 node=6 g=32\n"
      "notify t=360774305 node=6 g=124\n"
      "notify t=360774305 node=6 g=167\n"
      "notify t=360774305 node=6 g=145\n"
      "notify t=360774305 node=6 g=47\n"
      "notify t=360774305 node=6 g=19\n"
      "notify t=360774305 node=6 g=193\n"
      "notify t=360774305 node=6 g=38\n"
      "notify t=360774305 node=6 g=168\n"
      "notify t=360774305 node=6 g=179\n"
      "notify t=360774305 node=6 g=198\n"
      "notify t=360774505 node=8 g=123\n"
      "notify t=360774505 node=8 g=38\n"
      "notify t=360832287 node=0 g=123\n"
      "notify t=360838639 node=10 g=19\n"
      "notify t=360838639 node=10 g=168\n"
      "notify t=360838639 node=10 g=198\n"
      "notify t=360851738 node=12 g=168\n"
      "notify t=360851738 node=12 g=179\n"
      "notify t=360853179 node=22 g=19\n"
      "notify t=360853179 node=22 g=193\n"
      "notify t=360853179 node=22 g=38\n"
      "notify t=360853179 node=22 g=179\n"
      "notify t=360855894 node=18 g=193\n"
      "notify t=360855894 node=18 g=198\n"
      "notify t=373834910 node=8 g=163\n"
      "notify t=373834910 node=8 g=90\n"
      "notify t=373834910 node=8 g=189\n"
      "notify t=373834910 node=8 g=114\n"
      "notify t=373834910 node=8 g=93\n"
      "notify t=373834910 node=8 g=35\n"
      "notify t=373834910 node=8 g=23\n"
      "notify t=373834910 node=8 g=190\n"
      "notify t=373834910 node=8 g=144\n"
      "notify t=373834910 node=8 g=16\n"
      "notify t=373834910 node=8 g=178\n"
      "notify t=373834910 node=8 g=92\n"
      "notify t=373892892 node=0 g=144\n"
      "notify t=373892892 node=2 g=16\n"
      "notify t=373892892 node=0 g=178\n"
      "notify t=373912343 node=14 g=16\n"
      "notify t=373913784 node=22 g=178\n"
      "notify t=373913784 node=22 g=92\n"
      "notify t=373916499 node=20 g=190\n"
      "notify t=373916499 node=18 g=190\n"
      "notify t=373916499 node=20 g=92\n"
      "notify t=373918343 node=16 g=144\n"
      "notify t=375264393 node=20 g=36\n"
      "notify t=375264393 node=20 g=124\n"
      "notify t=375264393 node=20 g=166\n"
      "notify t=375264393 node=20 g=167\n"
      "notify t=375264393 node=20 g=35\n"
      "notify t=375264393 node=20 g=79\n"
      "notify t=375264393 node=20 g=47\n"
      "notify t=375264393 node=20 g=11\n"
      "notify t=375264393 node=20 g=34\n"
      "notify t=375264393 node=20 g=149\n"
      "notify t=375264393 node=20 g=18\n"
      "notify t=375264593 node=18 g=34\n"
      "notify t=375273868 node=22 g=36\n"
      "notify t=375273868 node=22 g=18\n"
      "notify t=375297160 node=2 g=36\n"
      "notify t=375343923 node=14 g=149\n"
      "notify t=375343923 node=12 g=149\n"
      "notify t=375345982 node=8 g=34\n"
      "notify t=375345982 node=6 g=18\n"
      "notify t=384437800 node=2 g=177\n"
      "notify t=384437800 node=2 g=163\n"
      "notify t=384437800 node=2 g=165\n"
      "notify t=384437800 node=2 g=22\n"
      "notify t=384437800 node=2 g=8\n"
      "notify t=384437800 node=2 g=137\n"
      "notify t=384437800 node=2 g=30\n"
      "notify t=384470567 node=20 g=177\n"
      "notify t=384472411 node=16 g=30\n"
      "notify t=384493723 node=12 g=30\n"
      "notify t=384495782 node=8 g=177\n"
      "notify t=384999507 node=12 g=180\n"
      "notify t=384999507 node=12 g=189\n"
      "notify t=384999507 node=12 g=165\n"
      "notify t=384999507 node=12 g=114\n"
      "notify t=384999507 node=12 g=93\n"
      "notify t=384999507 node=12 g=124\n"
      "notify t=384999507 node=12 g=166\n"
      "notify t=384999507 node=12 g=77\n"
      "notify t=384999507 node=12 g=145\n"
      "notify t=384999507 node=12 g=172\n"
      "notify t=384999507 node=12 g=8\n"
      "notify t=384999507 node=12 g=103\n"
      "notify t=385055455 node=10 g=180\n"
      "notify t=385080881 node=16 g=180\n"
      "notify t=391013263 node=22 g=133\n"
      "notify t=391013263 node=22 g=139\n"
      "notify t=391013263 node=22 g=49\n"
      "notify t=391013263 node=22 g=114\n"
      "notify t=391013263 node=22 g=22\n"
      "notify t=391013263 node=22 g=167\n"
      "notify t=391013263 node=22 g=77\n"
      "notify t=391013263 node=22 g=172\n"
      "notify t=391013263 node=22 g=23\n"
      "notify t=391013263 node=22 g=103\n"
      "notify t=391013263 node=22 g=24\n"
      "notify t=391013263 node=22 g=120\n"
      "notify t=391013263 node=22 g=94\n"
      "notify t=391013263 node=22 g=173\n"
      "notify t=391022738 node=20 g=24\n"
      "notify t=391043315 node=0 g=120\n"
      "notify t=391066892 node=10 g=173\n"
      "notify t=391068766 node=16 g=94\n"
      "notify t=391090078 node=12 g=133\n"
      "notify t=391090078 node=12 g=24\n"
      "notify t=391090078 node=12 g=173\n"
      "notify t=391092137 node=6 g=133\n"
      "notify t=391092137 node=8 g=120\n"
      "notify t=391092137 node=8 g=94\n"
      "notify t=397901818 node=14 g=90\n"
      "notify t=397901818 node=14 g=49\n"
      "notify t=397901818 node=14 g=22\n"
      "notify t=397901818 node=14 g=25\n"
      "notify t=397901818 node=14 g=32\n"
      "notify t=397901818 node=14 g=79\n"
      "notify t=397901818 node=14 g=137\n"
      "notify t=399088397 node=0 g=104\n"
      "notify t=399088397 node=0 g=163\n"
      "notify t=399088397 node=0 g=93\n"
      "notify t=399088397 node=0 g=25\n"
      "notify t=399088397 node=0 g=32\n"
      "notify t=399088397 node=0 g=166\n"
      "notify t=399088397 node=0 g=81\n"
      "notify t=399123008 node=16 g=104\n"
      "notify t=399144320 node=14 g=104\n"
      "notify t=399144320 node=14 g=81\n"
      "notify t=399146379 node=6 g=81\n"
      "notify t=399730187 node=10 g=91\n"
      "notify t=399730187 node=10 g=139\n"
      "notify t=399730187 node=10 g=77\n"
      "notify t=399730187 node=10 g=145\n"
      "notify t=399730187 node=10 g=8\n"
      "notify t=399730187 node=10 g=137\n"
      "notify t=399730187 node=10 g=11\n"
      "notify t=399730187 node=10 g=15\n"
      "notify t=399762924 node=0 g=15\n"
      "notify t=399762924 node=2 g=15\n"
      "notify t=399783816 node=22 g=91\n"
      "notify t=399786135 node=12 g=91\n"
      "notify t=400901818 node=14 g=17\n"
      "notify t=400901818 node=14 g=5\n"
      "notify t=400901818 node=14 g=40\n"
      "notify t=400901818 node=14 g=9\n"
      "notify t=400901818 node=14 g=134\n"
      "notify t=400901818 node=14 g=161\n"
      "notify t=400902018 node=12 g=134\n"
      "notify t=400957741 node=2 g=134\n"
      "notify t=400957766 node=10 g=40\n"
      "notify t=400978633 node=22 g=5\n"
      "notify t=400978633 node=22 g=161\n"
      "notify t=400979251 node=8 g=9\n"
      "notify t=400981348 node=20 g=17\n"
      "notify t=400981348 node=20 g=5\n"
      "notify t=400983192 node=16 g=17\n"
      "notify t=400983192 node=16 g=40\n"
      "notify t=400983192 node=16 g=9\n"
      "notify t=400983192 node=16 g=161\n"
      "notify t=401470567 node=18 g=139\n"
      "notify t=401470567 node=18 g=172\n"
      "notify t=401470567 node=18 g=23\n"
      "notify t=401470567 node=18 g=47\n"
      "notify t=401470567 node=18 g=103\n"
      "notify t=404470567 node=18 g=108\n"
      "notify t=404470567 node=18 g=75\n"
      "notify t=404470567 node=18 g=57\n"
      "notify t=404470567 node=18 g=176\n"
      "notify t=404470567 node=18 g=45\n"
      "notify t=404470767 node=20 g=45\n"
      "notify t=404503334 node=0 g=176\n"
      "notify t=404503334 node=2 g=45\n"
      "notify t=404528785 node=16 g=108\n"
      "notify t=404528785 node=16 g=75\n"
      "notify t=404528785 node=16 g=57\n"
      "notify t=404528785 node=16 g=176\n"
      "notify t=404550097 node=12 g=108\n"
      "notify t=404550097 node=14 g=57\n"
      "notify t=404552156 node=6 g=75\n"
      "notify t=412695403 node=16 g=11\n"
      "notify t=412695403 node=16 g=95\n"
      "notify t=412695403 node=16 g=97\n"
      "notify t=412695403 node=16 g=150\n"
      "notify t=412695403 node=16 g=189\n"
      "notify t=412695403 node=16 g=165\n"
      "notify t=412695403 node=16 g=49\n"
      "notify t=412695403 node=16 g=25\n"
      "notify t=412695403 node=16 g=35\n"
      "notify t=412695403 node=16 g=79\n"
      "notify t=412695403 node=16 g=175\n"
      "notify t=412730014 node=2 g=95\n"
      "notify t=412750906 node=22 g=175\n"
      "notify t=412753621 node=20 g=95\n"
      "notify t=412753621 node=18 g=97\n"
      "notify t=412753621 node=20 g=150\n"
      "notify t=412753621 node=18 g=175\n"
      "notify t=412778836 node=8 g=97\n"
      "notify t=412778836 node=8 g=150\n"
      "msgs overlay_ping n=4105 bytes=250780\n"
      "msgs overlay_ping_reply n=3829 bytes=234104\n"
      "msgs overlay_join n=2299 bytes=271477\n"
      "msgs overlay_routed n=0 bytes=0\n"
      "msgs fuse_create n=1200 bytes=102600\n"
      "msgs fuse_install_checking n=970 bytes=128040\n"
      "msgs fuse_soft_notification n=251 bytes=17068\n"
      "msgs fuse_hard_notification n=748 bytes=47872\n"
      "msgs fuse_need_repair n=533 bytes=36244\n"
      "msgs fuse_repair n=526 bytes=38180\n"
      "msgs fuse_reconcile n=14 bytes=3416\n"
      "msgs rpc n=0 bytes=0\n"
      "msgs app n=0 bytes=0\n"
      "msgs transport_control n=0 bytes=0\n"
      "events=44733 now=646083291 live=21\n";
  if (trace != golden) {
    std::fprintf(stderr, "--- actual group link table trace ---\n%s--- end ---\n",
                 trace.c_str());
  }
  EXPECT_EQ(trace, golden);
}

// Golden trace for the sweep's teardown order. Node 1 roots 12 groups with
// node 0 as their only member, and a phantom InstallChecking gives node 0 a
// link node 1 lacks, so the two digests disagree. Reconciles are held off
// after the first exchange, so nothing confirms the peer again and, at the
// deadline, each side's sweep tears down every link through the other in
// one pass. Without repair each teardown is an immediate upcall, so the
// upcalls at the sweep instant list the teardown order itself. The
// expected string was generated before the per-peer link table.
std::string RunSweepTeardownScenario() {
  std::string trace;
  char line[96];

  ClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.seed = 0x5EE9;
  cfg.topology.num_as = 30;
  cfg.cost = CostModel::Simulator();
  cfg.fuse.reconcile_min_interval = Duration::Minutes(600);
  cfg.fuse.grace_period = Duration::Minutes(600);
  cfg.fuse.attempt_repair = false;
  SimCluster cluster(cfg);
  cluster.Build();
  auto now_us = [&cluster] { return static_cast<long long>(cluster.sim().Now().ToMicros()); };

  constexpr size_t kGroups = 12;
  std::vector<FuseId> ids(kGroups + 1);
  std::vector<size_t> roots(kGroups + 1, 1);
  roots[kGroups] = 0;  // the phantom's group: a singleton at node 0
  for (size_t g = 0; g <= kGroups; ++g) {
    const std::vector<size_t> members =
        g < kGroups ? std::vector<size_t>{1, 0} : std::vector<size_t>{0};
    cluster.node(roots[g]).fuse()->CreateGroup(cluster.RefsOf(members),
                                               [&ids, g](const Status&, FuseId id) { ids[g] = id; });
  }
  cluster.sim().RunFor(Duration::Seconds(30));
  for (size_t g = 0; g <= kGroups; ++g) {
    for (size_t m : {0, 1}) {
      if (!cluster.node(m).fuse()->IsParticipant(ids[g])) {
        continue;
      }
      cluster.node(m).fuse()->RegisterFailureHandler(ids[g], [&, g, m](FuseId) {
        std::snprintf(line, sizeof(line), "notify t=%lld node=%zu g=%zu\n", now_us(), m, g);
        trace += line;
      });
    }
  }

  Writer w;
  WriteFuseId(w, ids[kGroups]);
  w.PutU32(0);
  WriteNodeRef(w, cluster.RefOf(1));
  cluster.node(1).overlay()->RouteByName(cluster.RefOf(0).name, FuseNode::kRoutedTag, w.Take(),
                                         MsgCategory::kFuseInstallChecking);
  cluster.sim().RunFor(Duration::Minutes(6));

  for (int c = 0; c < static_cast<int>(MsgCategory::kCount); ++c) {
    const auto cat = static_cast<MsgCategory>(c);
    if (cluster.sim().metrics().MessageCount(cat) == 0) {
      continue;
    }
    std::snprintf(line, sizeof(line), "msgs %s n=%llu bytes=%llu\n", MsgCategoryName(cat),
                  static_cast<unsigned long long>(cluster.sim().metrics().MessageCount(cat)),
                  static_cast<unsigned long long>(cluster.sim().metrics().ByteCount(cat)));
    trace += line;
  }
  std::snprintf(line, sizeof(line), "events=%llu now=%lld\n",
                static_cast<unsigned long long>(cluster.sim().queue().ExecutedCount()), now_us());
  trace += line;
  return trace;
}

TEST(DeterminismTest, GoldenSweepTeardownOrderTrace) {
  const std::string trace = RunSweepTeardownScenario();
  const std::string golden =
      "notify t=239482392 node=0 g=4\n"
      "notify t=239482392 node=0 g=11\n"
      "notify t=239482392 node=0 g=6\n"
      "notify t=239482392 node=0 g=12\n"
      "notify t=239482392 node=0 g=2\n"
      "notify t=239482392 node=0 g=10\n"
      "notify t=239482392 node=0 g=7\n"
      "notify t=239482392 node=0 g=3\n"
      "notify t=239482392 node=0 g=1\n"
      "notify t=239482392 node=0 g=9\n"
      "notify t=239482392 node=0 g=8\n"
      "notify t=239482392 node=0 g=0\n"
      "notify t=239482392 node=0 g=5\n"
      "notify t=239553599 node=1 g=4\n"
      "notify t=239553599 node=1 g=11\n"
      "notify t=239553599 node=1 g=6\n"
      "notify t=239553599 node=1 g=2\n"
      "notify t=239553599 node=1 g=10\n"
      "notify t=239553599 node=1 g=7\n"
      "notify t=239553599 node=1 g=3\n"
      "notify t=239553599 node=1 g=1\n"
      "notify t=239553599 node=1 g=9\n"
      "notify t=239553599 node=1 g=8\n"
      "notify t=239553599 node=1 g=0\n"
      "notify t=239553599 node=1 g=5\n"
      "msgs overlay_ping n=16 bytes=996\n"
      "msgs overlay_ping_reply n=16 bytes=996\n"
      "msgs overlay_join n=39 bytes=3479\n"
      "msgs fuse_create n=24 bytes=2052\n"
      "msgs fuse_install_checking n=13 bytes=1716\n"
      "msgs fuse_hard_notification n=24 bytes=1536\n"
      "msgs fuse_reconcile n=4 bytes=1608\n"
      "events=433 now=480427242\n";
  if (trace != golden) {
    std::fprintf(stderr, "--- actual sweep teardown trace ---\n%s--- end ---\n", trace.c_str());
  }
  EXPECT_EQ(trace, golden);
}

// Golden trace for the event core's ordering contract: events fire in
// (time, insertion-sequence) order, including among equal-time events that
// land in different wheel levels (and the overflow heap), survive
// cancellation of a neighbor, or are inserted into the currently-executing
// instant from a running callback. The expected string is written out by
// hand from the contract — if the core ever reorders equal-time events, this
// fails with a readable diff.
TEST(DeterminismTest, GoldenSameTimestampOrderingTrace) {
  EventQueue q;
  std::string trace;
  auto rec = [&trace, &q](const char* tag) {
    char line[48];
    std::snprintf(line, sizeof(line), "%s@%lld ", tag, static_cast<long long>(q.Now().ToMicros()));
    trace += line;
  };

  const TimePoint t_near = TimePoint::FromMicros(500);                        // level 0
  const TimePoint t_mid = TimePoint::FromMicros(70 * 1000000);                // level 2
  const TimePoint t_far = TimePoint::FromMicros(int64_t{5} * 3600 * 1000000); // overflow

  // Interleave insertions across the three horizons so that equal-time FIFO
  // order cannot fall out of per-level storage order by accident.
  q.ScheduleAt(t_near, [&] {
    rec("A");
    // Insert into the instant that is currently executing: same timestamp,
    // later sequence => must run after every pending t_near event.
    q.ScheduleAt(t_near, [&] { rec("H"); });
  });
  q.ScheduleAt(t_mid, [&] { rec("B"); });
  q.ScheduleAt(t_near, [&] { rec("C"); });
  q.ScheduleAt(t_far, [&] { rec("D"); });
  q.ScheduleAt(t_mid, [&] { rec("E"); });
  const TimerId cancelled = q.ScheduleAt(t_near, [&] { rec("X"); });
  q.ScheduleAt(t_far, [&] { rec("G"); });
  EXPECT_TRUE(q.Cancel(cancelled));

  q.RunAll();
  EXPECT_EQ(trace,
            "A@500 C@500 H@500 "
            "B@70000000 E@70000000 "
            "D@18000000000 G@18000000000 ");
}

}  // namespace
}  // namespace fuse
