#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "txn/version_store.h"

namespace mood {

class ObjectManager;

/// A reader's multi-version snapshot: reconstruct object state as of commit
/// sequence number `csn` using `versions` (see VersionStore's visibility
/// rule). Inactive (null `versions`) means read-latest — the legacy embedded
/// behavior. Every object read takes one (ObjectManager::Read and the reads
/// built on it); a statement passes the one it pinned.
struct SnapshotView {
  const VersionStore* versions = nullptr;
  uint64_t csn = 0;

  bool active() const { return versions != nullptr; }
  /// True when the version store may decide what this snapshot sees of an
  /// object in `file`: the snapshot is active and the file has version
  /// chains. Otherwise the heap record is the visible state.
  bool Versioned(uint16_t file) const {
    return active() && versions->FileHasVersions(file);
  }
};

/// One extent file a derived structure read, with its write epoch at stamp
/// time.
struct TouchedExtent {
  uint16_t file = 0;
  uint64_t write_epoch = 0;
};

/// Returns the write epoch of an extent file as some reader sees it: live
/// (ObjectManager::WriteEpochOf) or pinned (ReadView::EpochOf).
using WriteEpochFn = std::function<uint64_t(uint16_t)>;

/// The one staleness rule for epoch-stamped derived state — cached plans,
/// cached results, feedback selectivities and collected statistics. A stamp
/// holds while the schema epoch is unchanged and every stamped extent's write
/// epoch has moved forward by at most `max_churn` writes. An epoch below its
/// stamp is stale: the stamp no longer names that extent's history. The
/// result cache uses max_churn = 0 (exact); the others tolerate
/// stats_refresh_epoch_delta writes, since stale statistics cost plan
/// quality, not correctness.
template <typename EpochOf>
bool StampHolds(uint64_t stamped_schema, uint64_t current_schema,
                std::span<const TouchedExtent> extents, const EpochOf& epoch_of,
                uint64_t max_churn) {
  if (stamped_schema != current_schema) return false;
  for (const TouchedExtent& te : extents) {
    const uint64_t now = epoch_of(te.file);
    if (now < te.write_epoch || now - te.write_epoch > max_churn) return false;
  }
  return true;
}

/// Releases a ReadView's snapshot pin; the view is the pin's sole owner.
struct SnapshotUnpin {
  uint64_t csn = 0;
  void operator()(VersionStore* versions) const { versions->UnpinSnapshot(csn); }
};

/// What one reader sees, pinned in one step: the snapshot CSN plus every file
/// slot's write epoch and pending bit, captured by ObjectManager::PinReadView
/// under the commit gate's shared side. A single statement pins one for its
/// duration; a snapshot session holds one until EndSnapshot. Every freshness
/// decision a reader makes — may the result cache answer, may a materialized
/// view serve — is asked of its view. Move-only; destruction unpins.
class ReadView {
 public:
  uint64_t csn() const { return pin_.get_deleter().csn; }
  /// The snapshot handed to the executor.
  SnapshotView snapshot() const { return SnapshotView{pin_.get(), csn()}; }
  /// `file`'s write epoch at pin time.
  uint64_t EpochOf(uint16_t file) const { return epochs_[FileSlot(file)]; }
  /// True when `file` had no uncommitted writes at pin time, so EpochOf(file)
  /// names exactly the content this reader sees. A pending write has already
  /// advanced the heap and the epoch while this reader still sees the
  /// pre-image, so the epoch then names a state the reader does not see.
  bool Identifies(uint16_t file) const { return !pending_[FileSlot(file)]; }
  /// Identifies(file), and no write to `file` has landed since the pin: the
  /// latest state of `file` is exactly what this reader sees.
  bool Current(uint16_t file) const;

 private:
  friend class ObjectManager;
  explicit ReadView(const ObjectManager* objects) : objects_(objects) {}

  std::unique_ptr<VersionStore, SnapshotUnpin> pin_;
  const ObjectManager* objects_;
  std::array<uint64_t, kFileSlots> epochs_{};
  PendingSlots pending_{};
};

}  // namespace mood
