// Map on two parallel vectors: keys kept ascending, values beside them.
//
// Per-job tables hold tens to a few hundred entries, take a lookup per RPC
// and an iteration per window or summary. At that size a binary search over
// one contiguous key vector touches a few cache lines, iteration runs in
// ascending key order (the order std::map gives, which every
// floating-point fold over a per-job table depends on), and erasing keeps
// the capacity, so a warmed table inserts without allocating.
#pragma once

#include <algorithm>
#include <cstddef>
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
    const std::size_t i = lower_bound(key);
    return i < keys_.size() && keys_[i] == key ? &values_[i] : nullptr;
  }
  [[nodiscard]] const Value* find(const Key& key) const {
    const std::size_t i = lower_bound(key);
    return i < keys_.size() && keys_[i] == key ? &values_[i] : nullptr;
  }

  /// Index of `key`'s entry, and whether it was inserted (value-initialized,
  /// at its sorted position). An insert moves only the entries with larger
  /// keys, so the indices of smaller keys stay valid.
  std::pair<std::size_t, bool> try_emplace(const Key& key) {
    const std::size_t i = lower_bound(key);
    if (i < keys_.size() && keys_[i] == key) return {i, false};
    keys_.insert(keys_.begin() + static_cast<std::ptrdiff_t>(i), key);
    values_.insert(values_.begin() + static_cast<std::ptrdiff_t>(i), Value{});
    return {i, true};
  }

  Value& operator[](const Key& key) { return values_[try_emplace(key).first]; }

  /// Calls `pred(key, value)` once per entry in ascending key order and
  /// erases the entries it returns true for; the rest keep their order.
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
    keys_.erase(keys_.begin() + static_cast<std::ptrdiff_t>(kept), keys_.end());
    values_.erase(values_.begin() + static_cast<std::ptrdiff_t>(kept),
                  values_.end());
  }

  /// Empties the map and keeps both vectors' capacity.
  void clear() {
    keys_.clear();
    values_.clear();
  }

 private:
  [[nodiscard]] std::size_t lower_bound(const Key& key) const {
    return static_cast<std::size_t>(
        std::lower_bound(keys_.begin(), keys_.end(), key) - keys_.begin());
  }

  std::vector<Key> keys_;
  std::vector<Value> values_;
};

}  // namespace adaptbf
