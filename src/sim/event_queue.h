// Deterministic discrete-event queue on a hierarchical timer wheel.
//
// Determinism contract (unchanged from the original binary-heap core): events
// fire in (time, insertion-sequence) order, so two events scheduled for the
// same instant run in the order they were scheduled — this makes the whole
// simulation a deterministic function of its seed.
//
// Structure. Three wheel levels of 256 slots each, with slot granularities of
// 2^10, 2^18 and 2^26 microseconds (~1 ms, ~0.26 s, ~67 s), cover roughly the
// next 4.7 hours of virtual time; anything further lands in a heap-backed
// overflow level and is pulled into the wheels as the clock approaches it.
// The paper's workload (per-neighbor pings every 60 s, 20 s timeouts,
// millisecond RTTs) lives entirely in levels 0-1, where Schedule is O(1):
// append to a slot vector. As the wheel turns, a due slot is drained into a
// small "due" heap ordered by (time, seq); only that heap — which holds at
// most one level-0 slot window (~1 ms) of events plus same-window inserts —
// pays O(log k) ordering cost, with k tiny compared to the total pending
// count. This is what lets SimCluster scale to 10k+ nodes: the steady-state
// ping load schedules and fires millions of timers without a global heap.
//
// Cancellation is O(1) and fully reclaims the event: a TimerId encodes
// (pool index, generation); wheel slots are intrusive doubly-linked lists
// threaded through the pool entries, so Cancel unlinks the entry and frees
// it — closure included — immediately. There is no tombstone set; cancelling
// an already-fired or never-issued id is detected by a generation mismatch
// and changes no accounting. Only entries in the two small heaps (due
// window, far-future overflow) are lazily skipped, and their storage is
// still reclaimed at cancel time.
//
// Storage discipline: a wheel slot is one uint32 head index — there are no
// per-slot vectors whose capacity must warm up — so once the pool and the
// two heaps have grown to the workload's steady pending count, scheduling,
// cancelling, and firing allocate nothing, no matter how events happen to
// coincide within a slot.
#ifndef FUSE_SIM_EVENT_QUEUE_H_
#define FUSE_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <queue>
#include <vector>

#include "common/function.h"
#include "common/ids.h"
#include "common/time.h"

namespace fuse {

class EventQueue {
 public:
  // Move-only with a guaranteed small-buffer optimization: pooled entries
  // re-accept typical closures without heap traffic (see common/function.h).
  using EventFn = UniqueFunction;

  EventQueue();

  TimePoint Now() const { return now_; }

  // Schedules `fn` at absolute time `t` (clamped to Now if in the past).
  TimerId ScheduleAt(TimePoint t, EventFn fn);

  // Schedules `fn` after `d` (clamped to zero if negative).
  TimerId ScheduleAfter(Duration d, EventFn fn);

  // Cancels a pending event in O(1), releasing its closure immediately.
  // Returns false if it already ran, was already cancelled, or was never
  // issued; in those cases no accounting changes.
  bool Cancel(TimerId id);

  // Runs the single earliest event. Returns false if the queue is empty.
  bool RunOne();

  // Runs all events with time <= t, then advances the clock to exactly t.
  void RunUntil(TimePoint t);

  // Convenience: RunUntil(Now + d).
  void RunFor(Duration d);

  // Runs events until the queue drains or `max_events` fire; returns the
  // number of events executed.
  size_t RunAll(size_t max_events = SIZE_MAX);

  bool Empty() const { return live_count_ == 0; }
  size_t PendingCount() const { return live_count_; }
  uint64_t ExecutedCount() const { return executed_; }

  // Introspection counters for timer-pressure reporting (scale benches
  // compare these before/after ping coalescing).
  struct Stats {
    uint64_t scheduled = 0;  // total ScheduleAt/After calls ever
    uint64_t executed = 0;   // total events fired
    uint64_t cancelled = 0;  // total successful Cancels
    size_t pending = 0;      // live entries right now
    size_t wheel_live[3] = {0, 0, 0};  // live entries per wheel level
    size_t due_size = 0;       // due-heap refs (includes lazily-dead ones)
    size_t overflow_size = 0;  // overflow-heap refs (includes dead ones)
  };
  Stats GetStats() const;

 private:
  // Wheel geometry. kSlotBits slots per level; level L slots span
  // 2^(kShift0 + L*kSlotBits) microseconds.
  static constexpr int kShift0 = 10;    // level-0 slot = 1024 us
  static constexpr int kSlotBits = 8;   // 256 slots per level
  static constexpr int kLevels = 3;
  static constexpr uint64_t kSlots = uint64_t{1} << kSlotBits;
  static constexpr uint64_t kSlotMask = kSlots - 1;

  static constexpr uint32_t kNil = UINT32_MAX;

  // One pooled event. Entries are recycled through a free list; `generation`
  // is bumped on every release so stale references (in the heaps, or
  // user-held TimerIds) can be detected.
  struct Event {
    TimePoint when;
    uint64_t seq = 0;       // global insertion sequence: the FIFO tiebreak
    uint32_t generation = 1;
    // Where this entry's reference currently lives. Wheel entries are linked
    // into their slot's intrusive list so Cancel can unlink in O(1);
    // references in the due/overflow heaps are skipped lazily via the
    // generation. The covering slot number is recomputed from `when` and
    // `level`, so no slot/position bookkeeping is stored.
    enum class Where : uint8_t { kFree, kWheel, kDue, kOverflow };
    Where where = Where::kFree;
    uint8_t level = 0;   // wheel level (when where == kWheel)
    uint32_t prev = kNil;  // intrusive slot-list links (when where == kWheel)
    uint32_t next = kNil;
    EventFn fn;
  };

  // Reference to a pool entry at a specific generation.
  struct Ref {
    uint32_t index;
    uint32_t generation;
  };

  struct DueEntry {
    TimePoint when;
    uint64_t seq;
    Ref ref;
  };
  struct DueLater {
    bool operator()(const DueEntry& a, const DueEntry& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };
  struct OverflowEntry {
    TimePoint when;
    Ref ref;
  };
  struct OverflowLater {
    bool operator()(const OverflowEntry& a, const OverflowEntry& b) const {
      return a.when > b.when;
    }
  };

  static constexpr uint64_t SlotOf(TimePoint t, int level) {
    return static_cast<uint64_t>(t.ToMicros()) >> (kShift0 + level * kSlotBits);
  }

  bool IsLive(Ref r) const { return pool_[r.index].generation == r.generation; }

  uint32_t AllocEvent(TimePoint when, EventFn fn);
  void ReleaseEvent(uint32_t index);
  // Places a live pool entry into the wheel level that covers it (or the due
  // heap, if its level-0 slot has already been drained).
  void Place(Ref r);
  // Moves every live entry of `levels_[level][slot]` one level down (or into
  // the due heap for level 0).
  void DrainSlot(int level, uint64_t slot);
  // Pulls overflow-heap entries now covered by the wheels.
  void RefillFromOverflow();
  // Advances the wheel cursor until the due heap holds the earliest pending
  // event, or returns false when nothing is pending anywhere.
  bool FillDue();
  // Pops and runs the due heap's top entry.
  void PopAndRun();

  // Event pool + free list.
  std::vector<Event> pool_;
  std::vector<uint32_t> free_list_;

  // levels_[L][s] heads the intrusive list of events whose absolute level-L
  // slot number, modulo the rotation, is s. A slot only ever holds events
  // for one absolute slot number at a time (enforced by Place's level
  // selection against cursor_). All wheel entries are live: Cancel unlinks
  // eagerly, so level_refs_ is an exact count of pending events stored in
  // the wheels.
  uint32_t levels_[kLevels][kSlots];
  size_t level_refs_[kLevels] = {0, 0, 0};

  // Absolute level-0 slot number of the next slot to drain. Invariant: every
  // pending wheel/overflow event has SlotOf(when, 0) >= cursor_, and every
  // due-heap event has SlotOf(when, 0) < cursor_.
  uint64_t cursor_ = 0;

  std::priority_queue<DueEntry, std::vector<DueEntry>, DueLater> due_;
  std::priority_queue<OverflowEntry, std::vector<OverflowEntry>, OverflowLater> overflow_;

  TimePoint now_ = TimePoint::Zero();
  uint64_t next_seq_ = 1;
  size_t live_count_ = 0;
  uint64_t executed_ = 0;
  uint64_t scheduled_ = 0;
  uint64_t cancelled_ = 0;
};

}  // namespace fuse

#endif  // FUSE_SIM_EVENT_QUEUE_H_
