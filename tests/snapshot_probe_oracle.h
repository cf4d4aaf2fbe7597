#pragma once

// The scan oracle for snapshot index probes. The engine answers a kIndexSelect
// under a reader snapshot from the latest-state index plus the version chains;
// this oracle ignores the index entirely: it scans the snapshot-visible
// extents and applies every probe to each object's visible value through the
// index key codec, i.e. it returns what an index versioned like the heap
// would. Row order is scan order, so compare as multisets.

#include <string>
#include <vector>

#include "core/database.h"
#include "index/key_codec.h"

namespace mood::testing {

/// The index's comparison over encoded keys: MakeIndexKey is order-preserving
/// (the B+-tree relies on it), so byte comparison reproduces IndSel's bounds.
inline bool ProbeKeyMatches(const std::string& k, BinaryOp op, const std::string& key) {
  switch (op) {
    case BinaryOp::kEq: return k == key;
    case BinaryOp::kGt: return k > key;
    case BinaryOp::kGe: return k >= key;
    case BinaryOp::kLt: return k < key;
    case BinaryOp::kLe: return k <= key;
    default: return false;
  }
}

inline Result<std::vector<Oid>> SnapshotProbeScan(ObjectManager* objects,
                                                  const PlanNode& node,
                                                  const std::vector<MoodValue>& params,
                                                  const SnapshotView& snap) {
  std::vector<std::string> keys;
  for (const IndexProbe& probe : node.probes) {
    if (probe.param >= 0 && static_cast<size_t>(probe.param) >= params.size()) {
      return Status::InvalidArgument("parameter not bound");
    }
    keys.push_back(MakeIndexKey(probe.param >= 0 ? params[static_cast<size_t>(probe.param)]
                                                 : probe.constant));
  }
  // A zero-capacity cache caches nothing but still reads through the snapshot.
  DerefCache cache(0);
  cache.SetSnapshot(snap);
  std::vector<Oid> out;
  MOOD_RETURN_IF_ERROR(objects->ScanExtent(
      node.from.class_name, node.from.every, node.from.excludes, snap,
      [&](Oid oid, const MoodValue&) -> Status {
        for (size_t p = 0; p < node.probes.size(); p++) {
          Result<MoodValue> v =
              objects->GetAttribute(oid, node.probes[p].index.attribute, &cache);
          if (!v.ok()) return v.status().IsNotFound() ? Status::OK() : v.status();
          if (!ProbeKeyMatches(MakeIndexKey(v.value()), node.probes[p].cmp, keys[p])) {
            return Status::OK();
          }
        }
        out.push_back(oid);
        return Status::OK();
      }));
  return out;
}

}  // namespace mood::testing
