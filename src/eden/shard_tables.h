// ShardedTable: the per-shard recording tables of the metrics registry and
// the invariant monitor. Each kernel shard records into its own map, which
// keeps what it recorded for good; a base holds what was recorded before
// the last re-partition. A re-partition folds every shard's map into the
// base; a read combines the base and the shard maps, sorted, without moving
// anything. A key's records combine oldest first, the base's and then the
// shards' in index order, through the table's combine rule.
#ifndef SRC_EDEN_SHARD_TABLES_H_
#define SRC_EDEN_SHARD_TABLES_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/eden/uid.h"

namespace eden {

// Hashes the keys of the tables: a Uid, or a pair such as (Uid, band) or
// (queue component, Uid).
struct PairHash {
  size_t operator()(const Uid& uid) const { return Of(uid); }
  template <typename A, typename B>
  size_t operator()(const std::pair<A, B>& key) const {
    return Of(key.first) * 0x9e3779b97f4a7c15ULL ^ Of(key.second);
  }

 private:
  static size_t Of(const Uid& uid) { return Uid::Hash()(uid); }
  template <typename T>
  static size_t Of(const T& part) {
    return std::hash<T>()(part);
  }
};

template <typename Key, typename Value>
using HashMap = std::unordered_map<Key, Value, PairHash>;

// Combine rules for values that add, and for last values.
template <typename T>
void Add(T& into, const T& from) {
  into += from;
}
template <typename T>
void Last(T& into, const T& from) {
  into = from;
}

// `Combine(into_value, from_value)` (a function or member function pointer)
// folds a later record of a key into an earlier one.
template <typename Map, auto Combine>
class ShardedTable {
 public:
  using Key = typename Map::key_type;
  using Value = typename Map::mapped_type;

  // The map of `shard`. Grows the slot vector only outside a parallel run (a
  // hook called directly may name any shard): Fold sized it for a parallel
  // run's workers.
  Map& Shard(int shard) {
    if (static_cast<size_t>(shard) >= shards_.size()) {
      shards_.resize(static_cast<size_t>(shard) + 1);
    }
    return shards_[static_cast<size_t>(shard)].map;
  }

  // The base's record of `key`, or null: with the key's record in its home
  // shard, the key's whole history. Reads only the base, so a shard worker
  // may call it during a run.
  const Value* Base(const Key& key) const {
    if (base_.empty()) {
      return nullptr;
    }
    auto it = base_.find(key);
    return it != base_.end() ? &it->second : nullptr;
  }

  // Moves every shard's records into the base and keeps at least `shards`
  // slots, so the hooks of a run on that many workers never grow them.
  void Fold(int shards) {
    for (Slot& slot : shards_) {
      if (base_.empty()) {
        base_.swap(slot.map);
        continue;
      }
      base_.merge(slot.map);  // keys the base lacks move over as nodes
      for (auto& [key, value] : slot.map) {
        std::invoke(Combine, base_.find(key)->second, value);
      }
      slot.map.clear();
    }
    if (shards_.size() < static_cast<size_t>(shards)) {
      shards_.resize(static_cast<size_t>(shards));
    }
  }

  // Every key's combined record, sorted by key.
  std::vector<std::pair<Key, Value>> Sorted() const {
    std::vector<std::pair<Key, Value>> out;
    size_t total = base_.size();
    for (const Slot& slot : shards_) {
      total += slot.map.size();
    }
    out.reserve(total);
    out.insert(out.end(), base_.begin(), base_.end());
    for (const Slot& slot : shards_) {
      out.insert(out.end(), slot.map.begin(), slot.map.end());
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    size_t kept = 0;
    for (size_t i = 0; i < out.size(); ++i) {
      if (kept > 0 && !(out[kept - 1].first < out[i].first)) {
        std::invoke(Combine, out[kept - 1].second, out[i].second);
      } else {
        if (kept != i) {
          out[kept] = std::move(out[i]);
        }
        kept++;
      }
    }
    out.erase(out.begin() + static_cast<std::ptrdiff_t>(kept), out.end());
    return out;
  }

  // `key`'s combined record as of this call, or null when no map holds the
  // key. The pointer stays valid until Clear.
  const Value* Find(const Key& key) const {
    std::optional<Value> out;
    auto take = [&](const Map& map) {
      auto it = map.find(key);
      if (it == map.end()) {
        return;
      }
      if (out) {
        std::invoke(Combine, *out, it->second);
      } else {
        out = it->second;
      }
    };
    take(base_);
    for (const Slot& slot : shards_) {
      take(slot.map);
    }
    return out ? &(lookups_[key] = std::move(*out)) : nullptr;
  }

  void Clear() {
    for (Slot& slot : shards_) {
      slot.map = Map{};
    }
    base_ = Map{};
    lookups_ = Map{};
  }

 private:
  // One cache line or more per shard, so workers never share one.
  struct alignas(64) Slot {
    Map map;
  };

  std::vector<Slot> shards_ = std::vector<Slot>(1);
  Map base_;
  // Find's combined records.
  mutable Map lookups_;
};

// The value at `key` in a list Sorted built, or null.
template <typename Key, typename Value>
const Value* FindSorted(const std::vector<std::pair<Key, Value>>& sorted,
                        const Key& key) {
  auto it = std::lower_bound(
      sorted.begin(), sorted.end(), key,
      [](const std::pair<Key, Value>& entry, const Key& k) { return entry.first < k; });
  return it != sorted.end() && !(key < it->first) ? &it->second : nullptr;
}

}  // namespace eden

#endif  // SRC_EDEN_SHARD_TABLES_H_
