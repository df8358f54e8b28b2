// Map on two parallel vectors, keys kept ascending, with a hash index.
//
// Per-job tables hold tens to a few hundred entries, take a lookup per RPC
// and an iteration per window or summary. Iteration runs over the sorted
// key vector in ascending key order (the order std::map gives, which every
// floating-point fold over a per-job table depends on). Lookups go through
// an open-addressed index of positions instead of a binary search: a
// power-of-two table at most half full, probed linearly from a
// multiplicative (Fibonacci) hash of std::hash<Key>, so a lookup costs the
// same however many jobs the table holds. Inserts are rare (one per new
// job) and rebuild the index, as do erase_if() calls that erase and
// clear(). Erasing keeps every vector's capacity, so a warmed table
// inserts without allocating.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

namespace adaptbf {

template <typename Key, typename Value>
class FlatMap {
 public:
  [[nodiscard]] std::size_t size() const { return keys_.size(); }

  /// Keys in ascending order; values()[i] belongs to keys()[i].
  [[nodiscard]] std::span<const Key> keys() const { return keys_; }
  [[nodiscard]] std::span<Value> values() { return values_; }
  [[nodiscard]] std::span<const Value> values() const { return values_; }

  [[nodiscard]] Value* find(const Key& key) {
    const std::size_t i = position(key);
    return i == kAbsent ? nullptr : &values_[i];
  }
  [[nodiscard]] const Value* find(const Key& key) const {
    const std::size_t i = position(key);
    return i == kAbsent ? nullptr : &values_[i];
  }

  /// Index of `key`'s entry, and whether it was inserted (value-initialized,
  /// at its sorted position). An insert moves only the entries with larger
  /// keys, so the indices of smaller keys stay valid.
  std::pair<std::size_t, bool> try_emplace(const Key& key) {
    if (const std::size_t found = position(key); found != kAbsent)
      return {found, false};
    const auto at = std::lower_bound(keys_.begin(), keys_.end(), key);
    const auto i = static_cast<std::size_t>(at - keys_.begin());
    keys_.insert(at, key);
    values_.insert(values_.begin() + static_cast<std::ptrdiff_t>(i), Value{});
    rebuild_index();
    return {i, true};
  }

  Value& operator[](const Key& key) { return values_[try_emplace(key).first]; }

  /// Calls `pred(key, value)` once per entry in ascending key order and
  /// erases the entries it returns true for; the rest keep their order.
  /// The index is rebuilt only when an entry went.
  template <typename Pred>
  void erase_if(Pred pred) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (pred(std::as_const(keys_[i]), values_[i])) continue;
      if (kept != i) {
        keys_[kept] = std::move(keys_[i]);
        values_[kept] = std::move(values_[i]);
      }
      ++kept;
    }
    if (kept == keys_.size()) return;
    keys_.erase(keys_.begin() + static_cast<std::ptrdiff_t>(kept), keys_.end());
    values_.erase(values_.begin() + static_cast<std::ptrdiff_t>(kept),
                  values_.end());
    rebuild_index();
  }

  /// Empties the map and keeps every vector's capacity.
  void clear() {
    keys_.clear();
    values_.clear();
    std::fill(index_.begin(), index_.end(), kEmpty);
  }

 private:
  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);
  /// index_ holds entry position + 1; 0 marks an empty bucket.
  static constexpr std::uint32_t kEmpty = 0;

  [[nodiscard]] std::size_t bucket(const Key& key) const {
    const auto hash = static_cast<std::uint64_t>(std::hash<Key>{}(key));
    return static_cast<std::size_t>((hash * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  [[nodiscard]] std::size_t position(const Key& key) const {
    if (keys_.empty()) return kAbsent;
    const std::size_t mask = index_.size() - 1;
    for (std::size_t b = bucket(key);; b = (b + 1) & mask) {
      const std::uint32_t slot = index_[b];
      if (slot == kEmpty) return kAbsent;
      if (keys_[slot - 1] == key) return slot - 1;
    }
  }

  /// Sizes the index to at least twice the entry count (it never shrinks,
  /// so a cleared table refills without allocating) and re-inserts every
  /// entry's position.
  void rebuild_index() {
    std::size_t buckets = std::max<std::size_t>(index_.size(), 8);
    while (buckets < 2 * keys_.size()) buckets *= 2;
    index_.assign(buckets, kEmpty);
    shift_ = 64 - std::countr_zero(buckets);
    const std::size_t mask = buckets - 1;
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      std::size_t b = bucket(keys_[i]);
      while (index_[b] != kEmpty) b = (b + 1) & mask;
      index_[b] = static_cast<std::uint32_t>(i + 1);
    }
  }

  std::vector<Key> keys_;
  std::vector<Value> values_;
  std::vector<std::uint32_t> index_;
  int shift_ = 64;
};

}  // namespace adaptbf
