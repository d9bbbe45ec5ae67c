#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace fuse {

EventQueue::EventQueue() {
  // Typical steady-state pending count for a mid-size cluster; avoids the
  // first few pool reallocations.
  pool_.reserve(1024);
  free_list_.reserve(1024);
  for (auto& level : levels_) {
    for (uint32_t& head : level) {
      head = kNil;
    }
  }
}

uint32_t EventQueue::AllocEvent(TimePoint when, EventFn fn) {
  uint32_t index;
  if (!free_list_.empty()) {
    index = free_list_.back();
    free_list_.pop_back();
  } else {
    index = static_cast<uint32_t>(pool_.size());
    FUSE_CHECK(pool_.size() < UINT32_MAX) << "event pool exhausted";
    pool_.emplace_back();
  }
  Event& e = pool_[index];
  e.when = when;
  e.seq = next_seq_++;
  e.fn = std::move(fn);
  return index;
}

void EventQueue::ReleaseEvent(uint32_t index) {
  Event& e = pool_[index];
  e.fn = nullptr;  // release the closure now; a heap ref may linger
  e.where = Event::Where::kFree;
  e.generation++;
  free_list_.push_back(index);
}

void EventQueue::Place(Ref r) {
  Event& e = pool_[r.index];
  const uint64_t slot0 = SlotOf(e.when, 0);
  if (slot0 < cursor_) {
    // The covering slot was already drained (the event lands inside the
    // window currently being run); order it through the due heap.
    e.where = Event::Where::kDue;
    due_.push(DueEntry{e.when, e.seq, r});
    return;
  }
  for (int level = 0; level < kLevels; ++level) {
    const uint64_t slot = SlotOf(e.when, level);
    if (slot - (cursor_ >> (level * kSlotBits)) < kSlots) {
      uint32_t& head = levels_[level][slot & kSlotMask];
      e.where = Event::Where::kWheel;
      e.level = static_cast<uint8_t>(level);
      e.prev = kNil;
      e.next = head;
      if (head != kNil) {
        pool_[head].prev = r.index;
      }
      head = r.index;
      level_refs_[level]++;
      return;
    }
  }
  e.where = Event::Where::kOverflow;
  overflow_.push(OverflowEntry{e.when, r});
}

void EventQueue::DrainSlot(int level, uint64_t slot) {
  // Detach the whole list first: Place (level 0: due_ pushes; level > 0:
  // re-inserts one level down) relinks each entry, so the walk reads `next`
  // before handing the entry over. Wheel entries are always live (Cancel
  // unlinks eagerly). List order within a slot is irrelevant: execution
  // order is decided by the (time, seq) due heap.
  uint32_t idx = levels_[level][slot & kSlotMask];
  levels_[level][slot & kSlotMask] = kNil;
  size_t drained = 0;
  while (idx != kNil) {
    Event& e = pool_[idx];
    const uint32_t next = e.next;
    ++drained;
    Place(Ref{idx, e.generation});
    idx = next;
  }
  level_refs_[level] -= drained;
}

void EventQueue::RefillFromOverflow() {
  const uint64_t top_horizon = (cursor_ >> ((kLevels - 1) * kSlotBits)) + kSlots;
  while (!overflow_.empty()) {
    const OverflowEntry& top = overflow_.top();
    if (!IsLive(top.ref)) {
      overflow_.pop();
      continue;
    }
    if (SlotOf(top.when, kLevels - 1) >= top_horizon) {
      return;
    }
    const Ref r = top.ref;
    overflow_.pop();
    Place(r);
  }
}

bool EventQueue::FillDue() {
  // Skim stale (cancelled) entries so `due_.top()` is always live.
  while (!due_.empty() && !IsLive(due_.top().ref)) {
    due_.pop();
  }
  while (due_.empty()) {
    if (live_count_ == 0) {
      return false;
    }
    if (level_refs_[0] == 0 && level_refs_[1] == 0 && level_refs_[2] == 0) {
      // Everything pending is in the overflow heap: jump the wheel straight
      // to the earliest overflow event instead of stepping empty slots.
      while (!overflow_.empty() && !IsLive(overflow_.top().ref)) {
        overflow_.pop();
      }
      FUSE_CHECK(!overflow_.empty()) << "live_count_ out of sync with storage";
      cursor_ = std::max(cursor_, SlotOf(overflow_.top().when, 0));
      RefillFromOverflow();
      continue;
    }
    // Step the window forward, then drain the slot it just passed: its
    // events now satisfy slot0 < cursor_, so Place routes them into the due
    // heap. Cascades run when the cursor *enters* a higher-level slot, i.e.
    // when the lower bits wrap to zero; cascaded events have slot0 >=
    // cursor_, so Place routes them into lower wheel levels instead.
    if (level_refs_[0] == 0) {
      // Level 0 is empty, so every level-0 slot up to the next level-1
      // boundary is empty too (higher-level events always live past the
      // boundary that will cascade them): jump there in one step instead of
      // walking empty slots.
      cursor_ = (cursor_ | kSlotMask) + 1;
    } else {
      const uint64_t due_slot = cursor_;
      ++cursor_;
      DrainSlot(0, due_slot);
    }
    if ((cursor_ & kSlotMask) == 0) {
      DrainSlot(1, cursor_ >> kSlotBits);
      if (((cursor_ >> kSlotBits) & kSlotMask) == 0) {
        DrainSlot(2, cursor_ >> (2 * kSlotBits));
        RefillFromOverflow();
      }
    }
    while (!due_.empty() && !IsLive(due_.top().ref)) {
      due_.pop();
    }
  }
  return true;
}

TimerId EventQueue::ScheduleAt(TimePoint t, EventFn fn) {
  if (t < now_) {
    t = now_;
  }
  FUSE_CHECK(fn != nullptr) << "scheduling a null event";
  const uint32_t index = AllocEvent(t, std::move(fn));
  const uint32_t generation = pool_[index].generation;
  Place(Ref{index, generation});
  ++live_count_;
  ++scheduled_;
  // Pack (generation, index) into the id; see Cancel.
  return TimerId((uint64_t{generation} << 32) | index);
}

TimerId EventQueue::ScheduleAfter(Duration d, EventFn fn) {
  if (d < Duration::Zero()) {
    d = Duration::Zero();
  }
  return ScheduleAt(now_ + d, std::move(fn));
}

bool EventQueue::Cancel(TimerId id) {
  if (!id.valid()) {
    return false;
  }
  const uint32_t index = static_cast<uint32_t>(id.value & 0xffffffffULL);
  const uint32_t generation = static_cast<uint32_t>(id.value >> 32);
  if (index >= pool_.size() || pool_[index].generation != generation) {
    return false;  // already ran, already cancelled, or never issued
  }
  Event& e = pool_[index];
  if (e.where == Event::Where::kWheel) {
    // Unlink from the slot's intrusive list; the covering slot number is
    // recomputed from the event's own time and level.
    if (e.prev != kNil) {
      pool_[e.prev].next = e.next;
    } else {
      uint32_t& head = levels_[e.level][SlotOf(e.when, e.level) & kSlotMask];
      FUSE_CHECK(head == index) << "corrupt timer handle";
      head = e.next;
    }
    if (e.next != kNil) {
      pool_[e.next].prev = e.prev;
    }
    level_refs_[e.level]--;
  }
  // kDue / kOverflow refs are skipped lazily via the generation bump.
  ReleaseEvent(index);
  FUSE_CHECK(live_count_ > 0) << "cancel with no live events";
  --live_count_;
  ++cancelled_;
  return true;
}

void EventQueue::PopAndRun() {
  const DueEntry top = due_.top();
  due_.pop();
  Event& e = pool_[top.ref.index];
  FUSE_CHECK(e.when >= now_) << "event queue time went backwards";
  now_ = e.when;
  // Move the closure out and release the entry *before* running, so the
  // callback may freely schedule and cancel (and reuse this pool entry).
  EventFn fn = std::move(e.fn);
  ReleaseEvent(top.ref.index);
  --live_count_;
  ++executed_;
  fn();
}

bool EventQueue::RunOne() {
  if (!FillDue()) {
    return false;
  }
  PopAndRun();
  return true;
}

void EventQueue::RunUntil(TimePoint t) {
  while (FillDue() && due_.top().when <= t) {
    PopAndRun();
  }
  if (now_ < t) {
    now_ = t;
  }
  // Keep the wheel cursor in step with the clock across empty stretches, so
  // the next schedule after a long quiet RunUntil lands in a near slot
  // instead of making FillDue walk the gap slot by slot. Safe because every
  // remaining pending event is later than t (the loop above drained all
  // earlier ones into execution).
  cursor_ = std::max(cursor_, SlotOf(now_, 0));
}

void EventQueue::RunFor(Duration d) { RunUntil(now_ + d); }

EventQueue::Stats EventQueue::GetStats() const {
  Stats s;
  s.scheduled = scheduled_;
  s.executed = executed_;
  s.cancelled = cancelled_;
  s.pending = live_count_;
  for (int level = 0; level < kLevels; ++level) {
    s.wheel_live[level] = level_refs_[level];
  }
  s.due_size = due_.size();
  s.overflow_size = overflow_.size();
  return s;
}

size_t EventQueue::RunAll(size_t max_events) {
  size_t n = 0;
  while (n < max_events && RunOne()) {
    ++n;
  }
  return n;
}

}  // namespace fuse
