// Tests for the SWIM membership baseline, including the
// intransitive-connectivity scenario the paper argues membership services
// handle poorly (section 2).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "membership/swim.h"
#include "net/network.h"
#include "sim/simulation.h"
#include "transport/tcp_model.h"

namespace fuse {
namespace {

class SwimFixture : public ::testing::Test {
 protected:
  void Init(int n, uint64_t seed) {
    TopologyConfig cfg;
    cfg.num_as = 50;
    sim_ = std::make_unique<Simulation>(seed);
    net_ = std::make_unique<SimNetwork>(Topology::Generate(cfg, sim_->rng()));
    fabric_ = std::make_unique<SimFabric>(*sim_, *net_, CostModel::Simulator());
    for (int i = 0; i < n; ++i) {
      hosts_.push_back(net_->AddHost(sim_->rng()));
    }
    for (int i = 0; i < n; ++i) {
      members_.push_back(std::make_unique<SwimMember>(fabric_->TransportFor(hosts_[i])));
    }
    for (auto& m : members_) {
      m->Start(hosts_);
    }
  }

  std::unique_ptr<Simulation> sim_;
  std::unique_ptr<SimNetwork> net_;
  std::unique_ptr<SimFabric> fabric_;
  std::vector<HostId> hosts_;
  std::vector<std::unique_ptr<SwimMember>> members_;
};

TEST_F(SwimFixture, StablePopulationStaysAlive) {
  Init(16, 301);
  sim_->RunFor(Duration::Minutes(5));
  for (size_t i = 0; i < members_.size(); ++i) {
    EXPECT_EQ(members_[i]->NumDead(), 0u) << "node " << i << " sees false deaths";
  }
}

TEST_F(SwimFixture, CrashedNodeDeclaredDeadEverywhere) {
  Init(16, 302);
  sim_->RunFor(Duration::Minutes(1));
  fabric_->CrashHost(hosts_[5]);
  members_[5]->Stop();
  sim_->RunFor(Duration::Minutes(5));
  for (size_t i = 0; i < members_.size(); ++i) {
    if (i == 5) {
      continue;
    }
    EXPECT_EQ(members_[i]->StateOf(hosts_[5]), SwimMember::State::kDead)
        << "node " << i << " has not learned of the death";
  }
}

TEST_F(SwimFixture, GossipDisseminatesWithoutDirectObservation) {
  Init(24, 303);
  sim_->RunFor(Duration::Minutes(1));
  fabric_->CrashHost(hosts_[3]);
  members_[3]->Stop();
  sim_->RunFor(Duration::Minutes(6));
  // Every node learns, though only a few probed the dead node directly.
  size_t knowing = 0;
  for (size_t i = 0; i < members_.size(); ++i) {
    if (i != 3 && members_[i]->StateOf(hosts_[3]) == SwimMember::State::kDead) {
      ++knowing;
    }
  }
  EXPECT_EQ(knowing, members_.size() - 1);
}

TEST_F(SwimFixture, IntransitiveFailureForcesBadChoice) {
  // The section-2 dilemma: A cannot reach B, but everyone else can reach
  // both. SWIM's indirect probes mask the problem (both stay alive), which
  // means A is stuck with a peer it cannot actually use — exactly the case
  // where FUSE lets the *application* fail the affected group only.
  Init(12, 304);
  sim_->RunFor(Duration::Minutes(1));
  net_->faults().BlockPair(hosts_[0], hosts_[1]);
  sim_->RunFor(Duration::Minutes(10));
  // Indirect probing keeps both alive in the global view.
  size_t draws_dead = 0;
  for (size_t i = 2; i < members_.size(); ++i) {
    if (members_[i]->StateOf(hosts_[0]) == SwimMember::State::kDead ||
        members_[i]->StateOf(hosts_[1]) == SwimMember::State::kDead) {
      ++draws_dead;
    }
  }
  EXPECT_EQ(draws_dead, 0u) << "third parties should keep both reachable nodes alive";
  // ... and node 0 also keeps node 1 alive despite being unable to talk to
  // it: the membership abstraction gives it no usable signal.
  EXPECT_NE(members_[0]->StateOf(hosts_[1]), SwimMember::State::kDead);
}

}  // namespace
}  // namespace fuse
