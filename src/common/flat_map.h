// FlatMap<V>: an open-addressed hash table keyed by uint64_t.
//
// Replaces std::unordered_map on simulator hot paths (the per-pair connection
// table, the ping manager's peer table). Keys and slot states live in arrays
// separate from the values, so a probe touches 9 bytes per slot instead of
// sizeof(V): at 10k-node scale the connection table holds ~10^5 entries of
// ~150 bytes each, and keeping the probe stream dense is what makes lookups
// cache-resident. Erase leaves a tombstone; tombstones are compacted on
// growth.
//
// Contracts that differ from unordered_map:
//   * value references are invalidated by FindOrInsert (rehash moves slots) —
//     re-find after any insertion, and never hold a reference across a call
//     that may insert;
//   * iteration order is the probe order (deterministic for a deterministic
//     key/insertion history, but not sorted — callers needing a canonical
//     order must sort the keys they collect).
#ifndef FUSE_COMMON_FLAT_MAP_H_
#define FUSE_COMMON_FLAT_MAP_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace fuse {

template <typename V>
class FlatMap {
 public:
  V* Find(uint64_t key) {
    if (states_.empty()) {
      return nullptr;
    }
    const size_t mask = states_.size() - 1;
    for (size_t i = Mix(key) & mask;; i = (i + 1) & mask) {
      if (states_[i] == kEmpty) {
        return nullptr;
      }
      if (states_[i] == kFull && keys_[i] == key) {
        return &values_[i];
      }
    }
  }

  const V* Find(uint64_t key) const { return const_cast<FlatMap*>(this)->Find(key); }

  // Returns the value for `key`, default-constructing it if absent. May
  // rehash: invalidates outstanding value references.
  V& FindOrInsert(uint64_t key) {
    if (states_.empty() || (size_ + tombstones_ + 1) * 4 > states_.size() * 3) {
      Grow();
    }
    const size_t mask = states_.size() - 1;
    size_t insert_at = SIZE_MAX;
    for (size_t i = Mix(key) & mask;; i = (i + 1) & mask) {
      if (states_[i] == kFull && keys_[i] == key) {
        return values_[i];
      }
      if (states_[i] == kTombstone && insert_at == SIZE_MAX) {
        insert_at = i;
      }
      if (states_[i] == kEmpty) {
        if (insert_at == SIZE_MAX) {
          insert_at = i;
        } else {
          --tombstones_;  // reusing a tombstone slot
        }
        states_[insert_at] = kFull;
        keys_[insert_at] = key;
        ++size_;
        return values_[insert_at];
      }
    }
  }

  // Erases `key` if present, resetting the value so held resources drop now.
  bool Erase(uint64_t key) {
    if (size_ == 0) {
      return false;
    }
    const size_t mask = states_.size() - 1;
    for (size_t i = Mix(key) & mask;; i = (i + 1) & mask) {
      if (states_[i] == kEmpty) {
        return false;
      }
      if (states_[i] == kFull && keys_[i] == key) {
        states_[i] = kTombstone;
        values_[i] = V{};
        --size_;
        ++tombstones_;
        return true;
      }
    }
  }

  // Calls fn(key, value) for every entry, in probe order. The callback must
  // not insert or erase.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (size_t i = 0; i < states_.size(); ++i) {
      if (states_[i] == kFull) {
        fn(keys_[i], values_[i]);
      }
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < states_.size(); ++i) {
      if (states_[i] == kFull) {
        fn(keys_[i], values_[i]);
      }
    }
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  enum State : uint8_t { kEmpty = 0, kFull = 1, kTombstone = 2 };

  // splitmix64 finalizer: strong avalanche for sequential/packed keys.
  static size_t Mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<size_t>(x ^ (x >> 31));
  }

  void Grow() {
    // Double when genuinely full; same size when growth was forced by
    // tombstone buildup (compaction only).
    const size_t new_cap =
        states_.empty() ? 16 : ((size_ + 1) * 4 > states_.size() * 3 ? states_.size() * 2
                                                                     : states_.size());
    std::vector<uint8_t> old_states = std::move(states_);
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<V> old_values = std::move(values_);
    states_.assign(new_cap, kEmpty);
    keys_.assign(new_cap, 0);
    values_ = std::vector<V>(new_cap);  // default-construct: V may be move-only
    tombstones_ = 0;
    const size_t mask = new_cap - 1;
    for (size_t i = 0; i < old_states.size(); ++i) {
      if (old_states[i] != kFull) {
        continue;
      }
      size_t j = Mix(old_keys[i]) & mask;
      while (states_[j] == kFull) {
        j = (j + 1) & mask;
      }
      states_[j] = kFull;
      keys_[j] = old_keys[i];
      values_[j] = std::move(old_values[i]);
    }
  }

  std::vector<uint8_t> states_;
  std::vector<uint64_t> keys_;
  std::vector<V> values_;
  size_t size_ = 0;
  size_t tombstones_ = 0;
};

// Flat128Map<V>: the same open-addressed table keyed by a 128-bit (hi, lo)
// pair — the shape of a FuseId. Folding 128-bit group IDs down to 64 bits
// and keying a FlatMap on the fold would make a hash collision between two
// live groups silently alias their state, so the group tables store and
// compare the full key instead. Same contracts as FlatMap: FindOrInsert
// invalidates value references, iteration is probe order.
template <typename V>
class Flat128Map {
 public:
  V* Find(uint64_t hi, uint64_t lo) {
    if (states_.empty()) {
      return nullptr;
    }
    const size_t mask = states_.size() - 1;
    for (size_t i = Mix(hi, lo) & mask;; i = (i + 1) & mask) {
      if (states_[i] == kEmpty) {
        return nullptr;
      }
      if (states_[i] == kFull && keys_[i].first == hi && keys_[i].second == lo) {
        return &values_[i];
      }
    }
  }

  const V* Find(uint64_t hi, uint64_t lo) const {
    return const_cast<Flat128Map*>(this)->Find(hi, lo);
  }

  // Returns the value for the key, default-constructing it if absent. May
  // rehash: invalidates outstanding value references.
  V& FindOrInsert(uint64_t hi, uint64_t lo) {
    if (states_.empty() || (size_ + tombstones_ + 1) * 4 > states_.size() * 3) {
      Grow();
    }
    const size_t mask = states_.size() - 1;
    size_t insert_at = SIZE_MAX;
    for (size_t i = Mix(hi, lo) & mask;; i = (i + 1) & mask) {
      if (states_[i] == kFull && keys_[i].first == hi && keys_[i].second == lo) {
        return values_[i];
      }
      if (states_[i] == kTombstone && insert_at == SIZE_MAX) {
        insert_at = i;
      }
      if (states_[i] == kEmpty) {
        if (insert_at == SIZE_MAX) {
          insert_at = i;
        } else {
          --tombstones_;  // reusing a tombstone slot
        }
        states_[insert_at] = kFull;
        keys_[insert_at] = {hi, lo};
        ++size_;
        return values_[insert_at];
      }
    }
  }

  // Erases the key if present, resetting the value so held resources drop now.
  bool Erase(uint64_t hi, uint64_t lo) {
    if (size_ == 0) {
      return false;
    }
    const size_t mask = states_.size() - 1;
    for (size_t i = Mix(hi, lo) & mask;; i = (i + 1) & mask) {
      if (states_[i] == kEmpty) {
        return false;
      }
      if (states_[i] == kFull && keys_[i].first == hi && keys_[i].second == lo) {
        states_[i] = kTombstone;
        values_[i] = V{};
        --size_;
        ++tombstones_;
        return true;
      }
    }
  }

  // Calls fn(hi, lo, value) for every entry, in probe order. The callback
  // must not insert or erase.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (size_t i = 0; i < states_.size(); ++i) {
      if (states_[i] == kFull) {
        fn(keys_[i].first, keys_[i].second, values_[i]);
      }
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < states_.size(); ++i) {
      if (states_[i] == kFull) {
        fn(keys_[i].first, keys_[i].second, values_[i]);
      }
    }
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // Slots allocated (a power of two, or zero before the first insert).
  size_t capacity() const { return states_.size(); }

 private:
  enum State : uint8_t { kEmpty = 0, kFull = 1, kTombstone = 2 };

  static size_t Mix(uint64_t hi, uint64_t lo) {
    uint64_t x = hi ^ (lo * 0x9e3779b97f4a7c15ULL);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<size_t>(x ^ (x >> 31));
  }

  void Grow() {
    const size_t new_cap =
        states_.empty() ? 16 : ((size_ + 1) * 4 > states_.size() * 3 ? states_.size() * 2
                                                                     : states_.size());
    std::vector<uint8_t> old_states = std::move(states_);
    std::vector<std::pair<uint64_t, uint64_t>> old_keys = std::move(keys_);
    std::vector<V> old_values = std::move(values_);
    states_.assign(new_cap, kEmpty);
    keys_.assign(new_cap, {0, 0});
    values_ = std::vector<V>(new_cap);  // default-construct: V may be move-only
    tombstones_ = 0;
    const size_t mask = new_cap - 1;
    for (size_t i = 0; i < old_states.size(); ++i) {
      if (old_states[i] != kFull) {
        continue;
      }
      size_t j = Mix(old_keys[i].first, old_keys[i].second) & mask;
      while (states_[j] == kFull) {
        j = (j + 1) & mask;
      }
      states_[j] = kFull;
      keys_[j] = old_keys[i];
      values_[j] = std::move(old_values[i]);
    }
  }

  std::vector<uint8_t> states_;
  std::vector<std::pair<uint64_t, uint64_t>> keys_;
  std::vector<V> values_;
  size_t size_ = 0;
  size_t tombstones_ = 0;
};

}  // namespace fuse

#endif  // FUSE_COMMON_FLAT_MAP_H_
