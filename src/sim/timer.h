// First-class RAII timer handles over Environment::Schedule/Cancel.
//
// Raw TimerIds force every protocol layer to repeat the same bookkeeping:
// cancel-before-rearm, clear-after-fire, cancel-everything-on-teardown. Timer
// and PeriodicTimer own that lifecycle instead:
//
//   * auto-cancel on destruction — dropping the owning struct (a peer entry,
//     a group state) silently disarms its timers;
//   * rearm without reallocation — the callback is stored once in a shared
//     state block, and the closure handed to the event queue captures only
//     the shared_ptr, which UniqueFunction (common/function.h) stores
//     inline. Together with the event queue's pooled entries this makes the
//     steady-state ping load (arm timeout / cancel / rearm, per neighbor per
//     period) allocation-free;
//   * safe moves — the scheduled closure references the shared state, never
//     the handle, so handles can live in containers that relocate them.
//
// Thread-safety matches the underlying Environment convention: handles must
// be driven from the environment's event thread (the simulation loop, or
// LiveRuntime's loop thread).
#ifndef FUSE_SIM_TIMER_H_
#define FUSE_SIM_TIMER_H_

#include <functional>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "sim/environment.h"

namespace fuse {

// One-shot timer. Start sets the callback and arms; Restart rearms with the
// existing callback (the allocation-free steady-state path); Cancel disarms.
// A pending timer that is restarted or cancelled will not fire.
class Timer {
 public:
  Timer() = default;
  explicit Timer(Environment& env) : env_(&env) {}
  ~Timer() { Cancel(); }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  Timer(Timer&& other) noexcept
      : env_(other.env_), id_(other.id_), state_(std::move(other.state_)) {
    other.id_ = TimerId();
  }
  Timer& operator=(Timer&& other) noexcept {
    if (this != &other) {
      Cancel();
      env_ = other.env_;
      id_ = other.id_;
      state_ = std::move(other.state_);
      other.id_ = TimerId();
    }
    return *this;
  }

  // Binds a default-constructed handle to its environment. Idempotent; must
  // not change the environment while the timer is pending.
  void Bind(Environment& env) {
    FUSE_CHECK(env_ == nullptr || env_ == &env || !pending()) << "rebinding a pending timer";
    env_ = &env;
  }

  // Sets (or replaces) the callback without arming.
  void SetCallback(std::function<void()> fn) {
    EnsureState();
    state_->fn = std::move(fn);
  }

  // Sets the callback and arms the timer, replacing any pending fire.
  void Start(Duration d, std::function<void()> fn) {
    SetCallback(std::move(fn));
    Restart(d);
  }

  // Rearms with the callback from the last Start/SetCallback. Note: inside
  // the timer's own callback the stored function is temporarily consumed, so
  // self-rearming callbacks must use Start (or SetCallback + Restart), not
  // bare Restart.
  void Restart(Duration d) {
    FUSE_CHECK(env_ != nullptr) << "timer not bound to an environment";
    FUSE_CHECK(state_ != nullptr && state_->fn != nullptr) << "timer has no callback";
    Cancel();
    state_->pending = true;
    // Captures one shared_ptr (16 bytes): stored inline by UniqueFunction,
    // so arming allocates nothing.
    id_ = env_->Schedule(d, [s = state_] {
      if (!s->pending) {
        return;  // raced with a cancel the queue could not see (live runtime)
      }
      s->pending = false;
      // Run the callback from a local so it may safely replace itself (via
      // Start/SetCallback); restore it afterwards unless it did.
      std::function<void()> fn = std::move(s->fn);
      fn();
      if (s->fn == nullptr) {
        s->fn = std::move(fn);
      }
    });
  }

  // Disarms. Returns true if a pending fire was cancelled.
  bool Cancel() {
    if (!pending()) {
      return false;
    }
    state_->pending = false;
    env_->Cancel(id_);
    id_ = TimerId();
    return true;
  }

  bool pending() const { return state_ != nullptr && state_->pending; }

 private:
  struct State {
    std::function<void()> fn;
    bool pending = false;
  };

  void EnsureState() {
    if (state_ == nullptr) {
      state_ = std::make_shared<State>();
    }
  }

  Environment* env_ = nullptr;
  TimerId id_;
  std::shared_ptr<State> state_;
};

// One-shot timer for state kept by the hundred thousand (one per group): it
// holds only the scheduled event's id, so an idle slot costs 8 bytes and no
// heap. The owner supplies the environment and the closure at each arm, and
// must Cancel before dropping the slot (there is no destructor to do it).
// The closure must call Fired() before anything else, so that the slot reads
// idle while its own callback runs.
class TimerSlot {
 public:
  // Arms the slot, replacing any pending fire.
  void Start(Environment& env, Duration d, UniqueFunction fn) {
    Cancel(env);
    id_ = env.Schedule(d, std::move(fn));
  }

  // Disarms. Returns true if a pending fire was cancelled.
  bool Cancel(Environment& env) {
    if (!pending()) {
      return false;
    }
    env.Cancel(id_);
    id_ = TimerId();
    return true;
  }

  void Fired() { id_ = TimerId(); }
  bool pending() const { return id_.valid(); }

 private:
  TimerId id_;
};

// Fixed-period repeating timer. The callback runs once per period after the
// initial delay; it is rearmed before it is invoked, so the callback may call
// Stop() (or destroy the handle) to end the cycle.
class PeriodicTimer {
 public:
  PeriodicTimer() = default;
  explicit PeriodicTimer(Environment& env) : env_(&env) {}
  ~PeriodicTimer() { Stop(); }

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  PeriodicTimer(PeriodicTimer&& other) noexcept
      : env_(other.env_), state_(std::move(other.state_)) {}
  PeriodicTimer& operator=(PeriodicTimer&& other) noexcept {
    if (this != &other) {
      Stop();
      env_ = other.env_;
      state_ = std::move(other.state_);
    }
    return *this;
  }

  void Bind(Environment& env) {
    FUSE_CHECK(env_ == nullptr || env_ == &env || !running()) << "rebinding a running timer";
    env_ = &env;
  }

  // Fires first after `initial_delay` (use a jittered phase to spread load),
  // then every `period`. Replaces any previous cycle.
  void Start(Duration initial_delay, Duration period, std::function<void()> fn) {
    FUSE_CHECK(env_ != nullptr) << "timer not bound to an environment";
    Stop();
    state_ = std::make_shared<State>();
    state_->env = env_;
    state_->period = period;
    state_->fn = std::move(fn);
    state_->running = true;
    Arm(state_, initial_delay);
  }

  // Convenience: first fire after one full period.
  void Start(Duration period, std::function<void()> fn) {
    Start(period, period, std::move(fn));
  }

  void Stop() {
    if (!running()) {
      return;
    }
    state_->running = false;
    state_->env->Cancel(state_->id);
    state_.reset();
  }

  bool running() const { return state_ != nullptr && state_->running; }

 private:
  struct State {
    Environment* env = nullptr;
    Duration period;
    std::function<void()> fn;
    bool running = false;
    TimerId id;
  };

  static void Arm(const std::shared_ptr<State>& s, Duration d) {
    // Same shared_ptr-only capture as Timer: rearming each cycle is
    // allocation-free.
    s->id = s->env->Schedule(d, [s] {
      if (!s->running) {
        return;
      }
      Arm(s, s->period);  // rearm first so fn may Stop() or re-Start()
      s->fn();
    });
  }

  Environment* env_ = nullptr;
  std::shared_ptr<State> state_;
};

}  // namespace fuse

#endif  // FUSE_SIM_TIMER_H_
