// LiveRuntime: a wall-clock, threaded event loop and messaging layer.
//
// The paper ran the identical code base on a simulator and on a live cluster,
// differing only in the base messaging layer (section 7). This runtime is our
// live counterpart: the same Node stack (overlay + FUSE) driven by real time.
// All protocol code runs on one event-loop thread; application threads
// interact through blocking facades (e.g. CreateGroupBlocking) or by posting
// closures.
//
// On Linux the loop is epoll-based: one thread owns both timer firing (a
// timerfd armed to the earliest pending deadline) and I/O readiness for file
// descriptors registered via WatchFd — this is what lets the socket transport
// (src/transport/socket_transport.h) and the process-deployment control
// channels share the loop with protocol timers instead of spawning reader
// threads. On other platforms a plain condition-variable timer loop is kept
// (WatchFd is unavailable there).
//
// One loop turn: run the due timers, run the before-wait hooks
// (RunBeforeWait; the socket transport flushes each written-to socket here,
// one send(2) per socket per turn), re-arm the timerfd to the earliest
// deadline, then block in epoll_wait and dispatch the ready fds. The portable
// loop takes the same turn with a condition-variable wait in place of
// epoll_wait.
//
// In-process message delivery (the runtime is itself a TransportLayer) is
// retained for the single-process LiveCluster backend. Fault semantics are
// expressed through the same FaultInjector rule set the simulator fabric
// consults (host down, blocked pairs, partitions), evaluated under the loop
// lock on every send AND at delivery time; the sender's callback reports what
// actually happened (Ok only if the message was dispatched, Broken when a
// fault dropped it).
#ifndef FUSE_RUNTIME_LIVE_RUNTIME_H_
#define FUSE_RUNTIME_LIVE_RUNTIME_H_

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/fault_injector.h"
#include "sim/environment.h"
#include "transport/transport.h"

#if defined(__linux__)
#define FUSE_LIVE_RUNTIME_EPOLL 1
#endif

namespace fuse {

class LiveRuntime final : public Environment, public TransportLayer {
 public:
  struct Config {
    uint64_t seed = 1;
    Duration min_latency = Duration::Millis(1);
    Duration max_latency = Duration::Millis(5);
    double loss_probability = 0.0;
  };

  // Handler for a watched file descriptor; runs on the loop thread with the
  // EPOLL* event mask that fired. Spurious invocations are possible (an event
  // already consumed by an earlier handler in the same epoll batch) — handlers
  // must tolerate EAGAIN.
  using FdHandler = std::function<void(uint32_t events)>;

  explicit LiveRuntime(Config config);
  ~LiveRuntime() override;

  // Environment. Now/Schedule/Cancel are callable from any thread; handlers
  // run on the loop thread. Schedule wakes the loop only when called from
  // another thread: the loop re-reads the earliest deadline before it next
  // waits, so a timer armed from a handler or a timer callback is never
  // missed. rng() is protocol state and must only be drawn from on the loop
  // thread (Send, callable from any thread, draws from its own mutex-guarded
  // generator instead — one lock on one side of a shared generator would not
  // synchronize anything).
  TimePoint Now() const override;
  TimerId Schedule(Duration d, UniqueFunction fn) override;
  bool Cancel(TimerId id) override;
  Rng& rng() override { return rng_; }
  Metrics& metrics() override { return metrics_; }

  // Creates an in-process transport endpoint for a new host (ids are handed
  // out sequentially from 0). Its handler table is guarded by the loop lock,
  // so handlers may be registered from any thread.
  Transport* CreateHost();
  // The endpoint CreateHost made for `h`.
  Transport* TransportFor(HostId h);

  // Runs `fn` on the loop thread and waits for it to finish. Calling from the
  // loop thread itself runs `fn` inline (protocol callbacks may re-enter the
  // runtime through higher-level drivers without deadlocking). Returns true
  // iff `fn` ran: when Stop() wins the race, the pending closure is NOT run
  // and the caller is released with false instead of blocking forever.
  bool RunOnLoop(std::function<void()> fn);
  bool OnLoopThread() const { return std::this_thread::get_id() == loop_id_; }

  // Runs `fn` once on the loop thread, after this turn's due timers and I/O
  // handlers and before the loop next waits (or exits after Stop()). Loop
  // thread only. Lets a layer batch a turn's work (the socket transport's
  // writes) into one action per turn. A hook added by a hook runs in the
  // same drain. Returns a key for CancelBeforeWait.
  uint64_t RunBeforeWait(UniqueFunction fn);
  // Drops a hook that has not started yet; a no-op for one that ran, is
  // running, or was cancelled. Loop thread only (or after Stop()).
  void CancelBeforeWait(uint64_t key);

  // --- epoll I/O surface (Linux only; FUSE_CHECK-fails elsewhere) ---
  // Registers `fd` with the loop's epoll set; `handler` runs on the loop
  // thread whenever any event in `events` fires. Callable from any thread.
  void WatchFd(int fd, uint32_t events, FdHandler handler);
  // Changes the event mask of a watched fd.
  void ModifyFd(int fd, uint32_t events);
  // Removes `fd` from the epoll set. The caller still owns (and closes) the
  // fd. Safe against already-queued events: they are dropped on dispatch.
  void UnwatchFd(int fd);

  // Applies a mutation/query against the fault rules under the loop lock.
  // Sends racing with the mutation see either the old or the new rule set,
  // never a partially-applied one.
  void ApplyFaults(const std::function<void(FaultInjector&)>& fn);

  // Marks a host down: its messages are dropped (fail-stop crash).
  // Convenience shim over ApplyFaults.
  void SetHostDown(HostId h, bool down);

  // Stops and joins the loop thread, then releases every thread still blocked
  // in RunOnLoop (their closures are dropped, RunOnLoop returns false).
  // Post-stop the runtime is inert: Schedule/Cancel still work against the
  // (never again fired) timer store, RunOnLoop returns false immediately.
  void Stop();

  // In-process delivery; callable from any thread.
  void SendFrom(HostId from, WireMessage msg, Transport::SendCallback cb) override;

 private:
  // Blocking state for one cross-thread RunOnLoop call. Shared between the
  // caller, the queued wrapper closure, and Stop()'s drain.
  struct MarshalState {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    bool ran = false;
  };

  void Loop();
  // Wakes the loop out of its wait (eventfd write on the epoll path, condvar
  // notify on the portable path).
  void WakeLoop();
  // Pops and runs every timer due at `now`; called with `lock` held, returns
  // with it held.
  void RunDueTimers(std::unique_lock<std::mutex>& lock);
  // Runs the before-wait hooks; called without the lock.
  void RunBeforeWaitHooks();

  Config config_;
  Rng rng_;       // protocol stream: loop-thread only (via Environment::rng())
  Rng send_rng_;  // loss/latency draws in Send: guarded by mu_
  Metrics metrics_;
  std::chrono::steady_clock::time_point start_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  // Pending events in one ordered map keyed (deadline, seq): the loop pops
  // the front, Cancel erases through the seq index in one step. The index is
  // also the "not yet fired" set, so Cancel of an already-run id is rejected
  // — the same eager-cancel accounting as the sim timer wheel.
  using QueueKey = std::pair<std::chrono::steady_clock::time_point, uint64_t>;
  std::map<QueueKey, UniqueFunction> queue_;
  std::unordered_map<uint64_t, std::map<QueueKey, UniqueFunction>::iterator> by_seq_;
  uint64_t next_seq_ = 1;
  bool stopping_ = false;
  // RunOnLoop calls whose wrapper has not started running yet, keyed by the
  // wrapper's timer seq. Stop() signals the survivors after joining the loop.
  std::unordered_map<uint64_t, std::shared_ptr<MarshalState>> pending_marshals_;
  // Run-once hooks for the end of the current loop turn, keyed for
  // CancelBeforeWait. Loop thread only, so unguarded.
  std::vector<std::pair<uint64_t, UniqueFunction>> before_wait_;
  uint64_t next_hook_key_ = 1;

  // Dense by HostId (CreateHost hands out sequential ids). Guarded by mu_,
  // which also guards each endpoint's handler table.
  std::vector<std::unique_ptr<Transport>> hosts_;
  // The full fault vocabulary (down hosts, blocked pairs, partitions),
  // shared with the sim fabric. Guarded by mu_.
  FaultInjector faults_;

#if FUSE_LIVE_RUNTIME_EPOLL
  int epoll_fd_ = -1;
  int wake_fd_ = -1;   // eventfd: cross-thread loop wakeup
  int timer_fd_ = -1;  // timerfd: earliest pending deadline
  std::unordered_map<int, FdHandler> fd_handlers_;  // guarded by mu_
#endif

  std::thread thread_;
  std::thread::id loop_id_;
};

}  // namespace fuse

#endif  // FUSE_RUNTIME_LIVE_RUNTIME_H_
