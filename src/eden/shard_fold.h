// Folding per-shard recording tables, shared by the metrics registry and
// the invariant monitor: each kernel shard records into its own tables,
// which fold into the totals while no run is in flight.
#ifndef SRC_EDEN_SHARD_FOLD_H_
#define SRC_EDEN_SHARD_FOLD_H_

namespace eden {

// Moves `delta`'s entries into the ordered map `base`: keys `base` lacks
// move over as nodes (no copy, no allocation; the whole table when `base`
// is empty); the rest combine through `add(into, from)`.
template <typename Map, typename Add>
void FoldInto(Map& base, Map& delta, Add add) {
  if (base.empty()) {
    base.swap(delta);
    return;
  }
  base.merge(delta);
  for (auto& [key, value] : delta) {
    add(base.find(key)->second, value);
  }
  delta.clear();
}

}  // namespace eden

#endif  // SRC_EDEN_SHARD_FOLD_H_
