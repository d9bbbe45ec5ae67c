// Pool<T>: a generation-tagged freelist pool of value-type entries.
//
// The same pattern as the event queue's pooled timer entries (sim/event_queue):
// entries are addressed by a small Ref (index + generation) instead of a
// shared_ptr, so allocating per-message state on a hot path costs a freelist
// pop instead of a heap allocation, and dangling references are detected by a
// generation mismatch instead of kept alive by reference counting. Release
// resets the entry to a default-constructed value, dropping any captured
// resources (callbacks, buffers) immediately.
//
// References returned by Get() are invalidated by Alloc() (the backing vector
// may grow): re-resolve a Ref after any call that can allocate.
#ifndef FUSE_COMMON_POOL_H_
#define FUSE_COMMON_POOL_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace fuse {

template <typename T>
class Pool {
 public:
  struct Ref {
    uint32_t index = UINT32_MAX;
    uint32_t generation = 0;

    friend bool operator==(Ref a, Ref b) {
      return a.index == b.index && a.generation == b.generation;
    }
    friend bool operator!=(Ref a, Ref b) { return !(a == b); }
  };

  // Returns a ref to a default-state entry (recycled when possible).
  Ref Alloc() {
    uint32_t index;
    if (!free_.empty()) {
      index = free_.back();
      free_.pop_back();
    } else {
      index = static_cast<uint32_t>(entries_.size());
      entries_.emplace_back();
    }
    ++live_;
    return Ref{index, entries_[index].generation};
  }

  // Resolves a ref; nullptr if the entry was released (stale generation).
  T* Get(Ref r) {
    if (r.index >= entries_.size() || entries_[r.index].generation != r.generation) {
      return nullptr;
    }
    return &entries_[r.index].value;
  }
  const T* Get(Ref r) const { return const_cast<Pool*>(this)->Get(r); }

  // Releases a live entry: bumps the generation (staling every outstanding
  // ref) and resets the value so held resources are dropped now. Releasing
  // a stale ref would silently alias future allocations, so it is fatal.
  void Release(Ref r) {
    FUSE_CHECK(r.index < entries_.size() && entries_[r.index].generation == r.generation)
        << "releasing a stale pool ref";
    Entry& e = entries_[r.index];
    e.generation++;
    e.value = T{};
    free_.push_back(r.index);
    --live_;
  }

  size_t live() const { return live_; }

  // Visits every entry's value in index order; a released entry holds a
  // default-constructed value.
  template <typename Fn>
  void ForEachValue(Fn fn) {
    for (Entry& e : entries_) {
      fn(e.value);
    }
  }

 private:
  struct Entry {
    uint32_t generation = 1;
    T value;
  };

  std::vector<Entry> entries_;
  std::vector<uint32_t> free_;
  size_t live_ = 0;
};

}  // namespace fuse

#endif  // FUSE_COMMON_POOL_H_
