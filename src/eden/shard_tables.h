// Per-shard recording tables, shared by the metrics registry and the
// invariant monitor. Each kernel shard records into its own hash tables,
// which keep what it recorded for good; a base holds what was recorded
// before the last re-partition. A re-partition folds every shard's tables
// into the base; a read combines the base and the shard tables, sorted.
#ifndef SRC_EDEN_SHARD_TABLES_H_
#define SRC_EDEN_SHARD_TABLES_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "src/eden/uid.h"

namespace eden {

// Hashes the pair keys of the tables: (Uid, band), (Uid, counter name),
// (queue component, Uid).
struct PairHash {
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

// Moves `from`'s entries into `into` and empties `from`: keys `into` lacks
// move over as nodes (the whole table when `into` is empty); the rest
// combine through `add(into_value, from_value)`.
template <typename Map, typename Add>
void FoldInto(Map& into, Map& from, Add add) {
  if (into.empty()) {
    into.swap(from);
    return;
  }
  into.merge(from);
  for (auto& [key, value] : from) {
    add(into.find(key)->second, value);
  }
  from.clear();
}

// The entries of one table (`tables.*table`) of the base and of every
// shard, as one list sorted by key. A key's entries combine oldest first,
// the base's and then the shards' in index order, through
// `add(into_value, from_value)`.
template <typename Tables, typename Map, typename Add>
auto SortedUnion(const Tables& base, const std::vector<Tables>& shards,
                 Map Tables::*table, Add add) {
  std::vector<std::pair<typename Map::key_type, typename Map::mapped_type>> out;
  size_t total = (base.*table).size();
  for (const Tables& shard : shards) {
    total += (shard.*table).size();
  }
  out.reserve(total);
  out.insert(out.end(), (base.*table).begin(), (base.*table).end());
  for (const Tables& shard : shards) {
    out.insert(out.end(), (shard.*table).begin(), (shard.*table).end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t kept = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    if (kept > 0 && !(out[kept - 1].first < out[i].first)) {
      add(out[kept - 1].second, out[i].second);
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

// One key's entries across the base and the shards, combined as in
// SortedUnion; nullopt when no table holds the key.
template <typename Tables, typename Map, typename Add>
std::optional<typename Map::mapped_type> CombinedAt(const Tables& base,
                                                    const std::vector<Tables>& shards,
                                                    Map Tables::*table,
                                                    const typename Map::key_type& key,
                                                    Add add) {
  std::optional<typename Map::mapped_type> out;
  auto take = [&](const Tables& tables) {
    auto it = (tables.*table).find(key);
    if (it == (tables.*table).end()) {
      return;
    }
    if (out) {
      add(*out, it->second);
    } else {
      out = it->second;
    }
  };
  take(base);
  for (const Tables& shard : shards) {
    take(shard);
  }
  return out;
}

// The value at `key` in a list SortedUnion built, or null.
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
