// FlatIdMap: an open-addressing hash map from dense-ish 64-bit ids to small
// values, built for the scheduler's steady-state-allocation contract.
//
// The online scheduler needs a CeiId -> state-index lookup to serve
// cancellations, but a std::unordered_map would (a) allocate a node per
// insert — breaking the zero-allocation steady-state tick the alloc tests
// enforce — and (b) expose iteration in hash order, which the determinism
// analyzer bans from scheduling code. The same holds for the tables keyed
// by resource that are created on a resource's first touch (a Schedule's
// probe lists, the scheduler's ResourceHealth, the FaultInjector's
// states): sized by the touched resources, not the fleet. FlatIdMap fixes
// both:
//
//   * Linear probing over one flat power-of-two table (three parallel
//     arrays: key, value, occupancy). Insert allocates only when the load
//     factor crosses ~0.7 and the table doubles — a high-water event, never
//     steady state. Erase uses backward-shift deletion instead of
//     tombstones, so a stable population of insert/erase churn never
//     degrades probe lengths and never needs a rehash.
//   * No iterators. Lookup order cannot leak into a schedule; the only
//     traversal is ForEach, whose visit order is explicitly unspecified
//     (the analyzer treats it exactly like unordered-container iteration).
//
// Keys are hashed through SplitMix64, so adversarially dense or strided id
// patterns still spread. Not thread-safe — single-owner, like the Arena.

#ifndef WEBMON_UTIL_ID_MAP_H_
#define WEBMON_UTIL_ID_MAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.h"

namespace webmon {

template <typename V>
class FlatIdMap {
 public:
  FlatIdMap() = default;

  /// Pre-sizes the table for `n` live keys so inserts up to that population
  /// never allocate (capacity hints / steady-state warm-up).
  void Reserve(size_t n) {
    size_t cap = kMinCapacity;
    while (cap * kMaxLoadNum < n * kLoadDen) cap <<= 1;
    if (cap > capacity()) Rehash(cap);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Table growths so far (diagnostics: a flat curve after warm-up is the
  /// steady-state no-allocation signal, mirroring EventRing).
  int64_t rehashes() const { return rehashes_; }

  /// Inserts `key` -> `value`, overwriting any existing mapping.
  void Insert(uint64_t key, V value) {
    if ((size_ + 1) * kLoadDen > capacity() * kMaxLoadNum) {
      Rehash(capacity() == 0 ? kMinCapacity : capacity() * 2);
    }
    size_t i = Slot(key);
    while (used_[i]) {
      if (keys_[i] == key) {
        values_[i] = std::move(value);
        return;
      }
      i = (i + 1) & mask_;
    }
    used_[i] = 1;
    keys_[i] = key;
    values_[i] = std::move(value);
    ++size_;
  }

  /// The value mapped to `key`, and whether this call created it: an absent
  /// key is first mapped to a value-initialized V. One probe walk, plus a
  /// second only when the insert grows the table. The pointer is valid
  /// until the next Insert/FindOrInsert/Erase.
  std::pair<V*, bool> FindOrInsert(uint64_t key) {
    if (!used_.empty()) {
      size_t i = Slot(key);
      while (used_[i]) {
        if (keys_[i] == key) return {&values_[i], false};
        i = (i + 1) & mask_;
      }
      if ((size_ + 1) * kLoadDen <= capacity() * kMaxLoadNum) {
        return {&Claim(i, key), true};
      }
    }
    Rehash(capacity() == 0 ? kMinCapacity : capacity() * 2);
    size_t i = Slot(key);
    while (used_[i]) i = (i + 1) & mask_;
    return {&Claim(i, key), true};
  }

  /// Pointer to the value mapped to `key`, or nullptr. Valid until the next
  /// Insert/FindOrInsert/Erase.
  V* Find(uint64_t key) {
    const size_t i = FindSlot(key);
    return i == kNotFound ? nullptr : &values_[i];
  }
  const V* Find(uint64_t key) const {
    const size_t i = FindSlot(key);
    return i == kNotFound ? nullptr : &values_[i];
  }

  /// Drops every mapping but keeps the table's capacity: refilling it to
  /// the same population allocates nothing (per-chronon scratch maps).
  void Clear() {
    std::fill(used_.begin(), used_.end(), uint8_t{0});
    size_ = 0;
  }

  /// Removes `key` if present. Backward-shift deletion: the probe chain
  /// after the hole is compacted in place, so the table never accumulates
  /// tombstones and never needs a cleanup rehash — steady-state churn
  /// (insert/erase at a stable population) touches the heap zero times.
  bool Erase(uint64_t key) {
    size_t i = FindSlot(key);
    if (i == kNotFound) return false;
    used_[i] = 0;
    --size_;
    size_t j = i;
    while (true) {
      j = (j + 1) & mask_;
      if (!used_[j]) break;
      const size_t home = Slot(keys_[j]);
      // The entry at j may back-fill the hole at i iff its probe path from
      // `home` runs through i — i.e. home is NOT cyclically in (i, j].
      const bool blocked =
          i < j ? (home > i && home <= j) : (home > i || home <= j);
      if (!blocked) {
        keys_[i] = keys_[j];
        values_[i] = std::move(values_[j]);
        used_[i] = 1;
        used_[j] = 0;
        i = j;
      }
    }
    return true;
  }

  /// Visits every (key, value) pair in UNSPECIFIED order — never let the
  /// visit order feed a schedule; sort the keys first (see the determinism
  /// analyzer's unordered-iter rule, which covers FlatIdMap).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < used_.size(); ++i) {
      if (used_[i]) fn(keys_[i], values_[i]);
    }
  }

 private:
  static constexpr size_t kMinCapacity = 16;
  static constexpr size_t kNotFound = ~size_t{0};
  // Max load factor 11/16 (~0.69): linear probing stays short.
  static constexpr size_t kMaxLoadNum = 11;
  static constexpr size_t kLoadDen = 16;

  size_t capacity() const { return used_.size(); }

  static uint64_t Mix(uint64_t x) {
    // SplitMix64 finalizer: dense sequential ids spread over the table.
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  }

  size_t Slot(uint64_t key) const {
    WEBMON_DCHECK(!used_.empty());
    return static_cast<size_t>(Mix(key)) & mask_;
  }

  size_t FindSlot(uint64_t key) const {
    if (used_.empty()) return kNotFound;
    size_t i = Slot(key);
    while (used_[i]) {
      if (keys_[i] == key) return i;
      i = (i + 1) & mask_;
    }
    return kNotFound;
  }

  // Maps free slot `i` to `key` with a value-initialized value (the slot
  // may still hold an erased entry's value).
  V& Claim(size_t i, uint64_t key) {
    used_[i] = 1;
    keys_[i] = key;
    values_[i] = V();
    ++size_;
    return values_[i];
  }

  void Rehash(size_t new_capacity) {
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<V> old_values = std::move(values_);
    std::vector<uint8_t> old_used = std::move(used_);
    keys_.assign(new_capacity, 0);
    values_.assign(new_capacity, V());
    used_.assign(new_capacity, 0);
    mask_ = new_capacity - 1;
    size_ = 0;
    ++rehashes_;
    for (size_t i = 0; i < old_used.size(); ++i) {
      if (old_used[i]) Insert(old_keys[i], std::move(old_values[i]));
    }
  }

  std::vector<uint64_t> keys_;
  std::vector<V> values_;
  std::vector<uint8_t> used_;
  size_t mask_ = 0;
  size_t size_ = 0;
  int64_t rehashes_ = 0;
};

}  // namespace webmon

#endif  // WEBMON_UTIL_ID_MAP_H_
