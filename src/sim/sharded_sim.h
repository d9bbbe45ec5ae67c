// ShardedSim: a conservatively-synchronized parallel discrete-event
// simulator. Hosts are partitioned across S shards (see sim/shard.h); shards
// execute in lockstep epochs whose length is bounded by the lookahead L — the
// minimum one-way cross-shard network latency. Within an epoch [B, E),
// E <= t_first + L (t_first = earliest pending event anywhere), every shard
// runs its own events in isolation: a cross-shard message sent at time
// s >= t_first arrives at s + latency >= t_first + L >= E, so nothing sent
// during the epoch can affect the epoch itself. At the barrier the control
// thread merges all shard outboxes in canonical (deliver time, source shard,
// sequence) order and injects them into destination queues, replays deferred
// harness upcalls in (time, shard, sequence) order, and runs any control-
// plane events (churn timers, Await predicates) that came due.
//
// Determinism contract: the full schedule — every event on every queue, every
// RNG draw, every metric — is a function of (seed, shard count) only. The
// worker-thread count decides how many shards execute concurrently, never
// what they execute, so the same seed produces byte-identical traces at
// --threads 1, 2 and 8. Epochs where only one shard (or none) has work are
// executed inline on the control thread, and the epoch start fast-forwards
// to the earliest pending event, so idle stretches cost one barrier, not
// one barrier per lookahead window.
//
// The control plane is itself an Environment (the harness's env()): a
// separate event queue + RNG + Metrics that only ever runs on the control
// thread with all workers parked, which is what makes harness code — churn
// timers, fault application, Build's bookkeeping — barrier-safe without
// locks. Control events run before shard events carrying the same timestamp.
#ifndef FUSE_SIM_SHARDED_SIM_H_
#define FUSE_SIM_SHARDED_SIM_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "sim/environment.h"
#include "sim/event_queue.h"
#include "sim/shard.h"

namespace fuse {

class ShardedSim : public Environment {
 public:
  // `threads` is how many threads execute shards, the control thread
  // included; it is clamped to [1, num_shards], and 1 means every shard runs
  // inline on the control thread (no worker threads at all — the degenerate
  // case used by --threads=1 runs).
  ShardedSim(uint64_t seed, uint32_t num_shards, int threads);
  ~ShardedSim() override;

  ShardedSim(const ShardedSim&) = delete;
  ShardedSim& operator=(const ShardedSim&) = delete;

  // Environment implementation: the control plane. Schedule/Cancel operate on
  // the control queue; rng() is the control stream (node identities, boot
  // picks, churn draws); metrics() aggregates all shards on every call.
  TimePoint Now() const override { return now_; }
  TimerId Schedule(Duration d, UniqueFunction fn) override {
    return control_queue_.ScheduleAfter(d, std::move(fn));
  }
  bool Cancel(TimerId id) override { return control_queue_.Cancel(id); }
  Rng& rng() override { return control_rng_; }
  Metrics& metrics() override;

  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  int threads() const { return static_cast<int>(workers_.size()) + 1; }
  Shard& shard(uint32_t i) { return *shards_[i]; }

  // The conservative lookahead. Starts at a floor of the same-router hop
  // latency (200us); the deployment raises it once host placement is known.
  // Must only shrink or be set before the first Run* call.
  void SetLookahead(Duration l);
  Duration lookahead() const { return lookahead_; }

  void RunFor(Duration d) { RunUntil(now_ + d); }
  void RunUntil(TimePoint t);
  // Runs until `pred` (evaluated on the control thread at barriers) holds or
  // `deadline` passes; returns pred's final value. Predicate granularity is
  // one epoch — coarser than the single-threaded sim's per-event check, but
  // bounded by the lookahead, which is far below protocol timescales.
  bool RunUntilCondition(const std::function<bool()>& pred, TimePoint deadline);

  // Aggregate observability across the control queue and every shard.
  uint64_t TotalExecuted() const;
  size_t TotalPending() const;
  EventQueue::Stats AggregateQueueStats() const;
  EventQueue& control_queue() { return control_queue_; }

 private:
  // Runs one parallel phase: every shard executes [its now, end) — or [.., end]
  // when `inclusive`. The control thread claims shards alongside the workers,
  // then waits until all are done.
  void RunShards(TimePoint end, bool inclusive);
  // Claims and runs shards of the current epoch until none is left.
  void RunClaimedShards(TimePoint end, bool inclusive);
  // Spins on `ready` for a short while, then blocks on `cv` under mu_. An
  // epoch is often a few microseconds of work, far less than a futex wake.
  template <typename Ready>
  void SpinThenWait(std::condition_variable& cv, Ready ready);
  // Barrier work: sync the control clock, inject outboxes, replay upcalls.
  void DrainBarrier(TimePoint t);
  void InjectOutboxes(TimePoint barrier);
  bool RunDeferredUpcalls();
  void WorkerLoop();

  // The core loop shared by RunUntil and RunUntilCondition.
  bool RunCore(const std::function<bool()>& pred, TimePoint deadline);

  EventQueue control_queue_;
  Rng control_rng_;
  Metrics aggregate_metrics_;  // refreshed on metrics() calls
  std::vector<std::unique_ptr<Shard>> shards_;
  Duration lookahead_;
  TimePoint now_;
  bool lookahead_frozen_ = false;

  // Worker pool. Epoch dispatch: the control thread writes (target,
  // inclusive), then bumps the generation under mu_ (release) and wakes any
  // sleeping worker; workers claim shards via next_shard_ and count
  // themselves done (acq_rel), the last one taking mu_ before it wakes the
  // control thread. The release/acquire pairs on epoch_gen_ and
  // workers_done_ order shard state written in epoch N before barrier reads
  // and epoch N+1 execution; bumping and finishing under mu_ keeps a waiter
  // that checked its predicate from missing the wake.
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::atomic<uint64_t> epoch_gen_{0};
  TimePoint epoch_target_;
  bool epoch_inclusive_ = false;
  std::atomic<uint32_t> next_shard_{0};
  std::atomic<size_t> workers_done_{0};
  std::atomic<bool> shutdown_{false};

  // Scratch for barrier merging (reused across epochs).
  struct MergeEntry {
    TimePoint deliver_at;
    uint32_t src_shard;
    uint64_t seq;
    uint32_t dst_shard;
    UniqueFunction fn;
  };
  std::vector<MergeEntry> merge_scratch_;
  struct UpcallEntry {
    TimePoint when;
    uint32_t shard;
    uint64_t seq;
    std::function<void()> fn;
  };
  std::vector<UpcallEntry> upcall_scratch_;
};

}  // namespace fuse

#endif  // FUSE_SIM_SHARDED_SIM_H_
