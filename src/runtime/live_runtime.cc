#include "runtime/live_runtime.h"

#include <utility>

#include "common/logging.h"

#if FUSE_LIVE_RUNTIME_EPOLL
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/timerfd.h>
#include <unistd.h>
#endif

namespace fuse {

LiveRuntime::LiveRuntime(Config config)
    : config_(config),
      rng_(config.seed),
      send_rng_(config.seed * 0x9e3779b97f4a7c15ULL + 1),
      start_(std::chrono::steady_clock::now()) {
#if FUSE_LIVE_RUNTIME_EPOLL
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  FUSE_CHECK(epoll_fd_ >= 0) << "epoll_create1 failed";
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK);
  FUSE_CHECK(wake_fd_ >= 0 && timer_fd_ >= 0) << "eventfd/timerfd_create failed";
  struct epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  FUSE_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0);
  ev.data.fd = timer_fd_;
  FUSE_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &ev) == 0);
#endif
  thread_ = std::thread([this] { Loop(); });
  loop_id_ = thread_.get_id();
}

LiveRuntime::~LiveRuntime() {
  Stop();
#if FUSE_LIVE_RUNTIME_EPOLL
  ::close(timer_fd_);
  ::close(wake_fd_);
  ::close(epoll_fd_);
#endif
}

void LiveRuntime::WakeLoop() {
#if FUSE_LIVE_RUNTIME_EPOLL
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
#else
  cv_.notify_all();
#endif
}

void LiveRuntime::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return;
    }
    stopping_ = true;
  }
  WakeLoop();
  if (thread_.joinable()) {
    thread_.join();
  }
  // The loop is gone: any RunOnLoop whose wrapper never started would block
  // forever on its state. Release the callers with ran=false — the closures
  // are dropped, not run (running protocol code after stop would race the
  // teardown the caller is about to do).
  std::unordered_map<uint64_t, std::shared_ptr<MarshalState>> orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    orphans.swap(pending_marshals_);
  }
  for (auto& [seq, st] : orphans) {
    {
      std::lock_guard<std::mutex> sl(st->m);
      st->done = true;  // ran stays false
    }
    st->cv.notify_all();
  }
}

TimePoint LiveRuntime::Now() const {
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  return TimePoint::FromMicros(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count());
}

TimerId LiveRuntime::Schedule(Duration d, UniqueFunction fn) {
  const auto when = std::chrono::steady_clock::now() + std::chrono::microseconds(d.ToMicros());
  uint64_t seq;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seq = next_seq_++;
    by_seq_.emplace(seq, queue_.emplace(QueueKey(when, seq), std::move(fn)).first);
  }
  if (!OnLoopThread()) {
    WakeLoop();
  }
  return TimerId(seq);
}

bool LiveRuntime::Cancel(TimerId id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!id.valid()) {
    return false;
  }
  const auto it = by_seq_.find(id.value);
  if (it == by_seq_.end()) {
    return false;  // already ran, already cancelled, or never issued
  }
  queue_.erase(it->second);
  by_seq_.erase(it);
  return true;
}

void LiveRuntime::RunDueTimers(std::unique_lock<std::mutex>& lock) {
  while (!stopping_ && !queue_.empty()) {
    const auto it = queue_.begin();
    if (it->first.first > std::chrono::steady_clock::now()) {
      return;
    }
    const uint64_t seq = it->first.second;
    UniqueFunction fn = std::move(it->second);
    by_seq_.erase(seq);
    queue_.erase(it);
    lock.unlock();
    fn();
    lock.lock();
  }
}

uint64_t LiveRuntime::RunBeforeWait(UniqueFunction fn) {
  const uint64_t key = next_hook_key_++;
  before_wait_.emplace_back(key, std::move(fn));
  return key;
}

void LiveRuntime::CancelBeforeWait(uint64_t key) {
  for (auto& [k, fn] : before_wait_) {
    if (k == key) {
      k = 0;
      fn = nullptr;
      return;
    }
  }
}

void LiveRuntime::RunBeforeWaitHooks() {
  // By index: a hook may append (runs in this drain) or cancel (clears its
  // slot) while the list drains. A running hook's key is zeroed first, so
  // cancelling it from inside is a no-op.
  for (size_t i = 0; i < before_wait_.size(); ++i) {
    UniqueFunction fn = std::move(before_wait_[i].second);
    before_wait_[i].first = 0;
    if (fn) {
      fn();
    }
  }
  before_wait_.clear();
}

#if FUSE_LIVE_RUNTIME_EPOLL

void LiveRuntime::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  struct epoll_event evs[64];
  // The deadline the timerfd is currently armed for (min() = disarmed), so
  // pure-I/O wakeups on the socket hot path skip the settime syscall.
  auto armed = std::chrono::steady_clock::time_point::min();
  while (true) {
    RunDueTimers(lock);
    if (!before_wait_.empty()) {
      // Also on the way out: frames queued before Stop() still leave.
      lock.unlock();
      RunBeforeWaitHooks();
      lock.lock();
      continue;  // a hook may have scheduled due work
    }
    if (stopping_) {
      return;
    }
    // Arm the timerfd to the earliest deadline (disarm when idle); epoll then
    // wakes this thread for whichever comes first: a due timer, an I/O event,
    // or a cross-thread wakeup.
    const auto next = queue_.empty() ? std::chrono::steady_clock::time_point::min()
                                     : queue_.begin()->first.first;
    if (next != armed) {
      armed = next;
      struct itimerspec its{};
      if (!queue_.empty()) {
        auto delta = next - std::chrono::steady_clock::now();
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(delta).count();
        its.it_value.tv_sec = ns > 0 ? ns / 1000000000 : 0;
        its.it_value.tv_nsec = ns > 0 ? ns % 1000000000 : 1;
      }
      ::timerfd_settime(timer_fd_, 0, &its, nullptr);
    }
    lock.unlock();
    const int n = ::epoll_wait(epoll_fd_, evs, 64, -1);
    for (int i = 0; i < n; ++i) {
      const int fd = evs[i].data.fd;
      if (fd == wake_fd_ || fd == timer_fd_) {
        uint64_t buf;
        while (::read(fd, &buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      FdHandler handler;
      {
        std::lock_guard<std::mutex> hl(mu_);
        const auto it = fd_handlers_.find(fd);
        if (it != fd_handlers_.end()) {
          handler = it->second;  // copy: the handler may Unwatch itself
        }
      }
      if (handler) {
        handler(evs[i].events);
      }
    }
    lock.lock();
  }
}

void LiveRuntime::WatchFd(int fd, uint32_t events, FdHandler handler) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    fd_handlers_[fd] = std::move(handler);
  }
  struct epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  FUSE_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0) << "epoll add fd " << fd;
}

void LiveRuntime::ModifyFd(int fd, uint32_t events) {
  struct epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  FUSE_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) == 0) << "epoll mod fd " << fd;
}

void LiveRuntime::UnwatchFd(int fd) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    fd_handlers_.erase(fd);
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

#else  // !FUSE_LIVE_RUNTIME_EPOLL

// Portable fallback: a pure timer loop on a condition variable. No I/O
// multiplexing — the socket transport and process deployment are Linux-only.
void LiveRuntime::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    RunDueTimers(lock);
    if (!before_wait_.empty()) {
      // Also on the way out: frames queued before Stop() still leave.
      lock.unlock();
      RunBeforeWaitHooks();
      lock.lock();
      continue;  // a hook may have scheduled due work
    }
    if (stopping_) {
      return;
    }
    if (queue_.empty()) {
      cv_.wait(lock);
    } else {
      cv_.wait_until(lock, queue_.begin()->first.first);
    }
  }
}

void LiveRuntime::WatchFd(int, uint32_t, FdHandler) {
  FUSE_CHECK(false) << "WatchFd requires the epoll loop (Linux)";
}
void LiveRuntime::ModifyFd(int, uint32_t) {
  FUSE_CHECK(false) << "ModifyFd requires the epoll loop (Linux)";
}
void LiveRuntime::UnwatchFd(int) {
  FUSE_CHECK(false) << "UnwatchFd requires the epoll loop (Linux)";
}

#endif  // FUSE_LIVE_RUNTIME_EPOLL

Transport* LiveRuntime::CreateHost() {
  std::lock_guard<std::mutex> lock(mu_);
  const HostId id(hosts_.size());
  hosts_.push_back(std::make_unique<Transport>(id, *this, this, &mu_));
  return hosts_.back().get();
}

Transport* LiveRuntime::TransportFor(HostId h) {
  std::lock_guard<std::mutex> lock(mu_);
  FUSE_CHECK(h.value < hosts_.size()) << "no in-process host " << h.value;
  return hosts_[h.value].get();
}

bool LiveRuntime::RunOnLoop(std::function<void()> fn) {
  if (OnLoopThread()) {
    fn();
    return true;
  }
  auto st = std::make_shared<MarshalState>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return false;
    }
    const uint64_t seq = next_seq_++;
    pending_marshals_.emplace(seq, st);
    auto wrapper = [this, seq, st, fn = std::move(fn)] {
      {
        // De-register before running: once the wrapper has started, Stop()'s
        // drain (which only runs after joining this thread) must not signal
        // the state a second time.
        std::lock_guard<std::mutex> l(mu_);
        pending_marshals_.erase(seq);
      }
      fn();
      {
        std::lock_guard<std::mutex> sl(st->m);
        st->done = true;
        st->ran = true;
      }
      st->cv.notify_all();
    };
    const auto now = std::chrono::steady_clock::now();
    by_seq_.emplace(seq, queue_.emplace(QueueKey(now, seq), std::move(wrapper)).first);
  }
  WakeLoop();
  std::unique_lock<std::mutex> sl(st->m);
  st->cv.wait(sl, [&] { return st->done; });
  return st->ran;
}

void LiveRuntime::ApplyFaults(const std::function<void(FaultInjector&)>& fn) {
  std::lock_guard<std::mutex> lock(mu_);
  fn(faults_);
}

void LiveRuntime::SetHostDown(HostId h, bool down) {
  ApplyFaults([h, down](FaultInjector& f) { f.SetHostDown(h, down); });
}

void LiveRuntime::SendFrom(HostId from, WireMessage msg, Transport::SendCallback cb) {
  bool lost;
  Duration latency;
  {
    // Send is callable from any thread, so its draws (and the metrics
    // counters) sit in the same critical section as the fault-rule check —
    // and come from send_rng_, never the loop thread's unlocked protocol
    // stream (a lock on only one side of a shared generator would still
    // race the ping-jitter draws protocol code makes through env().rng()).
    std::lock_guard<std::mutex> lock(mu_);
    metrics_.IncMessage(msg.category, msg.WireSize());
    lost = faults_.IsBlocked(from, msg.to) || send_rng_.Bernoulli(config_.loss_probability);
    latency = Duration::Micros(send_rng_.UniformInt(config_.min_latency.ToMicros(),
                                                    config_.max_latency.ToMicros()));
    // Slow-but-alive rules stretch the one-way latency; the same term feeds
    // the loss-timeout path below, mirroring the sim fabric's inflated RTO.
    latency += faults_.ExtraDelay(from, msg.to);
  }
  if (lost) {
    // Reliable-transport semantics: the sender eventually learns the send
    // failed (timeout compressed to a few latencies here).
    if (cb) {
      Schedule(latency * int64_t{4},
               [cb = std::move(cb)] { cb(Status::Broken("live: peer unreachable")); });
    }
    return;
  }
  const HostId to = msg.to;
  // mutable: the inner Schedule below genuinely moves `cb` out.
  Schedule(latency, [this, msg = std::move(msg), to, latency, cb = std::move(cb)]() mutable {
    Transport* dest = nullptr;
    bool dropped = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Re-check the rules at delivery time: a partition or crash applied
      // while the message was in flight takes effect immediately, as it does
      // for the sim fabric's per-attempt checks.
      if (faults_.IsBlocked(msg.from, to)) {
        dropped = true;
      } else if (to.value < hosts_.size()) {
        dest = hosts_[to.value].get();
      }
    }
    if (dest != nullptr) {
      dest->Dispatch(msg);
    }
    // The ack reports the delivery outcome: Ok only when the message reached
    // the destination host (dispatched, or delivered-and-ignored for an
    // unregistered type), Broken when the delivery-time fault re-check
    // dropped it — matching the sim fabric's per-attempt semantics. The
    // sender learns at ~2x latency (one round trip) either way.
    if (cb) {
      Schedule(latency, [cb = std::move(cb), dropped] {
        cb(dropped ? Status::Broken("live: peer unreachable") : Status::Ok());
      });
    }
  });
}

}  // namespace fuse
