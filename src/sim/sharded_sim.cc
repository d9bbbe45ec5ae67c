#include "sim/sharded_sim.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace fuse {

namespace {
// Floor lookahead: two co-located hosts (same router) are one 200us hop
// apart — the minimum any topology placement can produce (topology.cc,
// GetPath's same-router case).
constexpr Duration kMinLookahead = Duration::Micros(200);
}  // namespace

ShardedSim::ShardedSim(uint64_t seed, uint32_t num_shards, int threads)
    : control_rng_(seed), lookahead_(kMinLookahead), now_(TimePoint::Zero()) {
  FUSE_CHECK(num_shards >= 1) << "need at least one shard";
  shards_.reserve(num_shards);
  for (uint32_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(i, seed, num_shards));
  }
  // The control thread runs shards too, so the pool holds one fewer thread.
  int workers = std::min(threads, static_cast<int>(num_shards)) - 1;
  if (workers < 0) {
    workers = 0;  // run shards inline on the control thread
  }
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ShardedSim::~ShardedSim() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_.store(true, std::memory_order_release);
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

Metrics& ShardedSim::metrics() {
  // Aggregate-on-read: message accounting happens on shard metrics (hosts
  // write through their shard environment); nothing in the control plane
  // increments, so rebuilding the aggregate here is safe.
  aggregate_metrics_.Reset();
  for (auto& s : shards_) {
    aggregate_metrics_.AddFrom(s->metrics());
  }
  return aggregate_metrics_;
}

void ShardedSim::SetLookahead(Duration l) {
  FUSE_CHECK(!lookahead_frozen_ || l <= lookahead_)
      << "lookahead may only shrink once the sim has run";
  if (l < kMinLookahead) {
    l = kMinLookahead;
  }
  lookahead_ = l;
}

template <typename Ready>
void ShardedSim::SpinThenWait(std::condition_variable& cv, Ready ready) {
  constexpr int kSpinIterations = 1 << 14;
  for (int i = 0; i < kSpinIterations; ++i) {
    if (ready()) {
      return;
    }
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
  std::unique_lock<std::mutex> lock(mu_);
  cv.wait(lock, ready);
}

void ShardedSim::RunClaimedShards(TimePoint end, bool inclusive) {
  for (;;) {
    const uint32_t i = next_shard_.fetch_add(1, std::memory_order_relaxed);
    if (i >= shards_.size()) {
      return;
    }
    shards_[i]->RunEpoch(end, inclusive);
  }
}

void ShardedSim::WorkerLoop() {
  uint64_t seen_gen = 0;
  for (;;) {
    SpinThenWait(work_cv_, [&] {
      return shutdown_.load(std::memory_order_acquire) ||
             epoch_gen_.load(std::memory_order_acquire) != seen_gen;
    });
    if (shutdown_.load(std::memory_order_acquire)) {
      return;
    }
    seen_gen = epoch_gen_.load(std::memory_order_acquire);
    RunClaimedShards(epoch_target_, epoch_inclusive_);
    if (workers_done_.fetch_add(1, std::memory_order_acq_rel) + 1 == workers_.size()) {
      { std::lock_guard<std::mutex> lock(mu_); }
      done_cv_.notify_one();
    }
  }
}

void ShardedSim::RunShards(TimePoint end, bool inclusive) {
  // Epochs where at most one shard has work run inline: waking the pool
  // would cost more than the epoch itself.
  size_t busy = 0;
  for (size_t i = 0; i < shards_.size() && !workers_.empty() && busy <= 1; ++i) {
    const TimePoint t = shards_[i]->NextEventTime();
    busy += (inclusive ? t <= end : t < end) ? 1 : 0;
  }
  if (busy <= 1) {
    for (auto& s : shards_) {
      s->RunEpoch(end, inclusive);
    }
    return;
  }
  epoch_target_ = end;
  epoch_inclusive_ = inclusive;
  next_shard_.store(0, std::memory_order_relaxed);
  workers_done_.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    epoch_gen_.fetch_add(1, std::memory_order_release);
  }
  work_cv_.notify_all();
  RunClaimedShards(end, inclusive);
  SpinThenWait(done_cv_, [&] {
    return workers_done_.load(std::memory_order_acquire) == workers_.size();
  });
}

void ShardedSim::InjectOutboxes(TimePoint barrier) {
  merge_scratch_.clear();
  for (uint32_t src = 0; src < shards_.size(); ++src) {
    for (uint32_t dst = 0; dst < shards_.size(); ++dst) {
      auto& box = shards_[src]->outbox(dst);
      for (auto& m : box) {
        FUSE_CHECK(m.deliver_at >= barrier)
            << "cross-shard message violates the lookahead barrier";
        merge_scratch_.push_back(MergeEntry{m.deliver_at, src, m.seq, dst, std::move(m.fn)});
      }
      box.clear();
    }
  }
  if (merge_scratch_.empty()) {
    return;
  }
  // Canonical injection order: destination queues assign insertion sequence
  // numbers in this order, so ties at one (queue, time) always resolve the
  // same way regardless of which worker produced the message first.
  std::sort(merge_scratch_.begin(), merge_scratch_.end(),
            [](const MergeEntry& a, const MergeEntry& b) {
              if (a.deliver_at != b.deliver_at) {
                return a.deliver_at < b.deliver_at;
              }
              if (a.src_shard != b.src_shard) {
                return a.src_shard < b.src_shard;
              }
              return a.seq < b.seq;
            });
  for (auto& e : merge_scratch_) {
    shards_[e.dst_shard]->queue().ScheduleAt(e.deliver_at, std::move(e.fn));
  }
  merge_scratch_.clear();
}

bool ShardedSim::RunDeferredUpcalls() {
  upcall_scratch_.clear();
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    if (!shards_[i]->HasDeferred()) {
      continue;
    }
    for (auto& d : shards_[i]->TakeDeferred()) {
      upcall_scratch_.push_back(UpcallEntry{d.when, i, d.seq, std::move(d.fn)});
    }
  }
  if (upcall_scratch_.empty()) {
    return false;
  }
  std::sort(upcall_scratch_.begin(), upcall_scratch_.end(),
            [](const UpcallEntry& a, const UpcallEntry& b) {
              if (a.when != b.when) {
                return a.when < b.when;
              }
              if (a.shard != b.shard) {
                return a.shard < b.shard;
              }
              return a.seq < b.seq;
            });
  // Replayed upcalls run in barrier context (Current() == nullptr): they may
  // freely touch harness state, schedule control events, or send — sends land
  // in outboxes for the follow-up injection pass.
  std::vector<UpcallEntry> batch = std::move(upcall_scratch_);
  upcall_scratch_.clear();
  for (auto& u : batch) {
    u.fn();
  }
  return true;
}

void ShardedSim::DrainBarrier(TimePoint t) {
  // Control clock keeps pace with the shard clocks so barrier-context code
  // (upcalls, control events) reads a current Now(). Executes nothing: every
  // pending control event is at >= t by construction of the epoch bound.
  control_queue_.RunUntilBefore(t);
  now_ = t;
  InjectOutboxes(t);
  if (RunDeferredUpcalls()) {
    // Upcalls may have produced sends of their own; inject them too. Their
    // delivery times are >= t + network latency > t.
    InjectOutboxes(t);
  }
}

bool ShardedSim::RunCore(const std::function<bool()>& pred, TimePoint deadline) {
  lookahead_frozen_ = true;
  for (;;) {
    if (pred && pred()) {
      return true;
    }
    const TimePoint t_ctrl = control_queue_.NextEventTime();
    TimePoint t_shard = TimePoint::Max();
    for (auto& s : shards_) {
      const TimePoint t = s->NextEventTime();
      if (t < t_shard) {
        t_shard = t;
      }
    }
    if (std::min(t_ctrl, t_shard) > deadline) {
      // Nothing left within the horizon: park every clock at the deadline.
      RunShards(deadline, /*inclusive=*/false);
      DrainBarrier(deadline);
      control_queue_.RunUntil(deadline);
      return pred ? pred() : true;
    }
    if (t_ctrl <= t_shard) {
      // Control events lead at this timestamp. Advance the shard clocks so
      // the control action observes a consistent snapshot (no shard events
      // exist before t_ctrl), then run the control batch with workers parked.
      RunShards(t_ctrl, /*inclusive=*/false);
      now_ = t_ctrl;
      control_queue_.RunUntil(t_ctrl);
      InjectOutboxes(t_ctrl);
      if (RunDeferredUpcalls()) {
        InjectOutboxes(t_ctrl);
      }
      continue;
    }
    // Parallel epoch. Fast-forward its start to the earliest pending event
    // and bound it by the lookahead, the next control event, and the horizon.
    TimePoint end = t_shard + lookahead_;
    if (t_ctrl < end) {
      end = t_ctrl;
    }
    if (end > deadline) {
      // Final stretch: run inclusively to the deadline. Safe because every
      // message sent at >= t_shard arrives >= t_shard + lookahead > deadline.
      RunShards(deadline, /*inclusive=*/true);
      DrainBarrier(deadline);
      continue;  // upcalls may have scheduled control work at <= deadline
    }
    RunShards(end, /*inclusive=*/false);
    DrainBarrier(end);
  }
}

void ShardedSim::RunUntil(TimePoint t) {
  if (t < now_) {
    return;
  }
  RunCore(nullptr, t);
}

bool ShardedSim::RunUntilCondition(const std::function<bool()>& pred, TimePoint deadline) {
  return RunCore(pred, deadline);
}

uint64_t ShardedSim::TotalExecuted() const {
  uint64_t total = control_queue_.ExecutedCount();
  for (const auto& s : shards_) {
    total += s->queue().ExecutedCount();
  }
  return total;
}

size_t ShardedSim::TotalPending() const {
  size_t total = control_queue_.PendingCount();
  for (const auto& s : shards_) {
    total += s->queue().PendingCount();
  }
  return total;
}

EventQueue::Stats ShardedSim::AggregateQueueStats() const {
  EventQueue::Stats agg = control_queue_.GetStats();
  for (const auto& s : shards_) {
    const EventQueue::Stats st = s->queue().GetStats();
    agg.scheduled += st.scheduled;
    agg.executed += st.executed;
    agg.cancelled += st.cancelled;
    agg.pending += st.pending;
    for (int level = 0; level < 3; ++level) {
      agg.wheel_live[level] += st.wheel_live[level];
    }
    agg.due_size += st.due_size;
    agg.overflow_size += st.overflow_size;
  }
  return agg;
}

}  // namespace fuse
